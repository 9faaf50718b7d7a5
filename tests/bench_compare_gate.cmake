# bench_compare passes (exit 0) a fresh report that carries every
# gated key and fails (exit 1) one that lacks a gated key, with the
# CI gate's shape: a throughput key plus exact counter keys.
#
#   cmake -DBENCH_COMPARE=<binary> -DDATA=<tests/data> \
#         -P bench_compare_gate.cmake

function(expect_exit want)
    execute_process(COMMAND "${BENCH_COMPARE}" ${ARGN}
                    RESULT_VARIABLE got)
    if(NOT got STREQUAL want)
        message(FATAL_ERROR
                "bench_compare ${ARGN}: exit ${got}, expected ${want}")
    endif()
endfunction()

set(base "${DATA}/bench_compare_baseline.json")
expect_exit(0 "${base}" "${base}" --key _per_s --exact-key synth.opt.)
expect_exit(1 "${base}" "${DATA}/bench_compare_fresh_missing.json"
            --key _per_s --exact-key synth.opt.)
