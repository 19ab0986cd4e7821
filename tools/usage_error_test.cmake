# Usage-error test: run `${CLI} ${ARGS}` (ARGS is one space-separated
# string) and require exit status 2, the usage text on stderr, and
# stderr matching EXPECT. An abort from an internal assert exits 134
# (or reports a signal), so it fails here, unlike under WILL_FAIL.
separate_arguments(args UNIX_COMMAND "${ARGS}")
execute_process(
    COMMAND ${CLI} ${args}
    RESULT_VARIABLE rc
    OUTPUT_QUIET
    ERROR_VARIABLE err)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "cosmos ${ARGS}: expected exit 2, got '${rc}'\n"
                        "${err}")
endif()
if(NOT err MATCHES "usage: cosmos")
    message(FATAL_ERROR "cosmos ${ARGS}: no usage text on stderr\n${err}")
endif()
if(NOT err MATCHES "${EXPECT}")
    message(FATAL_ERROR "cosmos ${ARGS}: stderr lacks '${EXPECT}'\n"
                        "${err}")
endif()
