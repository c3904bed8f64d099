# Runs EXE with ARGS and fails unless it exits with EXPECT_RC and its
# stderr matches EXPECT_STDERR. Usage:
#   cmake -DEXE=prog -DARGS=--flag -DEXPECT_RC=2 -DEXPECT_STDERR=text \
#         -P expect_usage_error.cmake
execute_process(COMMAND ${EXE} ${ARGS}
                RESULT_VARIABLE rc
                OUTPUT_QUIET
                ERROR_VARIABLE err)
if(NOT rc EQUAL EXPECT_RC)
  message(FATAL_ERROR "${EXE} ${ARGS}: exit ${rc}, expected ${EXPECT_RC}")
endif()
if(NOT err MATCHES "${EXPECT_STDERR}")
  message(FATAL_ERROR
          "${EXE} ${ARGS}: stderr lacks '${EXPECT_STDERR}':\n${err}")
endif()
