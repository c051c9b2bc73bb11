# Runs dlsbl_cli with configs ProtocolConfig::validate() rejects and
# requires exit status 2 with the validator's message on stderr.
#
#   cmake -DCLI=<path to dlsbl_cli> -P cli_bad_config.cmake
function(expect_rejected message)
    execute_process(COMMAND "${CLI}" ${ARGN}
        RESULT_VARIABLE status OUTPUT_QUIET ERROR_VARIABLE err)
    string(JOIN " " flags ${ARGN})
    if(NOT status STREQUAL "2")
        message(FATAL_ERROR "dlsbl_cli ${flags}: exit status '${status}', expected 2\n${err}")
    endif()
    string(FIND "${err}" "dlsbl_cli: ${message}" at)
    if(at EQUAL -1)
        message(FATAL_ERROR "dlsbl_cli ${flags}: stderr lacks 'dlsbl_cli: ${message}'\n${err}")
    endif()
endfunction()

expect_rejected("ProtocolConfig: need at least two processors" --w 1)
expect_rejected("ProtocolConfig: block_count == 0" --blocks 0)
