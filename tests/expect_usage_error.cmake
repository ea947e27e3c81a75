# Runs CMD with ARGS and passes when it exits 2 (a usage error) with stderr
# matching the regex EXPECT.  A configuration the fabric cannot build must
# be reported that way, never terminate the process.
#
#   cmake -DCMD=<binary> "-DARGS=<args>" "-DEXPECT=<regex>" -P this-file
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(COMMAND "${CMD}" ${args}
                RESULT_VARIABLE rc ERROR_VARIABLE err OUTPUT_QUIET)
if(NOT rc STREQUAL "2")
  message(FATAL_ERROR "expected exit code 2, got ${rc}; stderr:\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
  message(FATAL_ERROR "stderr does not match \"${EXPECT}\":\n${err}")
endif()
