# Run one command line and check its exit code and combined output.
#
#   cmake -DCLI=<binary> -DARGS=<arguments joined by '|'> -DEXPECT_RC=<code>
#         [-DEXPECT_OUTPUT=<regex over stdout+stderr>] -P cli_check.cmake
#
# A crash or a hang (killed after 50 s) reports a non-numeric result and
# fails the check like a wrong exit code does.

string(REPLACE "|" ";" args "${ARGS}")
execute_process(COMMAND "${CLI}" ${args}
  RESULT_VARIABLE rc
  OUTPUT_VARIABLE out
  ERROR_VARIABLE out
  TIMEOUT 50)
message("${out}")
if(NOT rc STREQUAL "${EXPECT_RC}")
  message(FATAL_ERROR "exit status '${rc}', expected ${EXPECT_RC}")
endif()
if(NOT out MATCHES "${EXPECT_OUTPUT}")
  message(FATAL_ERROR "output does not match '${EXPECT_OUTPUT}'")
endif()
