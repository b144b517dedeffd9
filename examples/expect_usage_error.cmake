# Runs COMMAND (a ;-separated list) and requires exit code 2 with EXPECT in
# its combined output: how the examples report a usage error.
#
#   cmake -DCOMMAND="diagnose;--overload-mode;relax-sigma" \
#         -DEXPECT="valid: ..." -P expect_usage_error.cmake
execute_process(COMMAND ${COMMAND}
                RESULT_VARIABLE code
                OUTPUT_VARIABLE out
                ERROR_VARIABLE err)
if(NOT code EQUAL 2)
  message(FATAL_ERROR "expected exit code 2, got '${code}'\n${out}${err}")
endif()
string(FIND "${out}${err}" "${EXPECT}" at)
if(at EQUAL -1)
  message(FATAL_ERROR "output lacks '${EXPECT}':\n${out}${err}")
endif()
