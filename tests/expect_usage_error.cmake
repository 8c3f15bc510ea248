# Runs BIN with ARGS (one string, split like a shell command line) and
# requires the `saer` usage-error contract of the figure binaries: exit
# code 2 and exactly one line on stderr.  Invoked by ctest:
#   cmake -DBIN=<binary> "-DARGS=--flag value" -P expect_usage_error.cmake
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND ${BIN} ${args}
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
string(REGEX MATCHALL "\n" newlines "${err}")
list(LENGTH newlines lines)
if(NOT rc STREQUAL "2" OR NOT lines EQUAL 1)
  message(FATAL_ERROR "${BIN} ${ARGS}: exit '${rc}' with ${lines} stderr "
                      "lines, want exit 2 with one line:\n${err}")
endif()
