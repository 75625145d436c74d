# Regression check for micro_hotpath's default JSON report: invoked
# with only --benchmark_out_format=json (no --benchmark_out), the
# binary must still write BENCH_micro_hotpath.json into
# TPRE_BENCH_DIR. The out-flag detection once prefix-matched
# --benchmark_out_format and silently dropped the report.
#
#   cmake -DMICRO=<micro_hotpath> -DOUT_DIR=<dir> \
#         -P check_default_report.cmake

if (NOT MICRO OR NOT OUT_DIR)
    message(FATAL_ERROR "usage: cmake -DMICRO=<micro_hotpath> "
                        "-DOUT_DIR=<dir> -P check_default_report.cmake")
endif ()

set(report ${OUT_DIR}/BENCH_micro_hotpath.json)
file(REMOVE_RECURSE ${OUT_DIR})
file(MAKE_DIRECTORY ${OUT_DIR})

execute_process(
    COMMAND ${CMAKE_COMMAND} -E env TPRE_BENCH_DIR=${OUT_DIR}
            ${MICRO} --benchmark_out_format=json
    RESULT_VARIABLE status
    OUTPUT_QUIET)
if (NOT status EQUAL 0)
    message(FATAL_ERROR "micro_hotpath exited with ${status}")
endif ()
if (NOT EXISTS ${report})
    message(FATAL_ERROR "default report ${report} was not written")
endif ()
message(STATUS "default report written: ${report}")
