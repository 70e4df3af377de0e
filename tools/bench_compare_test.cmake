# CTest driver for tools/bench_compare.py. Invoked as:
#   cmake -DSCRIPT=<bench_compare.py> -DFIXTURES=<dir> -P bench_compare_test.cmake
# Runs each check on passing and failing fixture records and fails
# when a check's exit code is not the expected one — a tripwire that
# passes everything guards nothing.

find_program(WCNN_PYTHON NAMES python3 python)
if(NOT WCNN_PYTHON)
    message(FATAL_ERROR "bench_compare: no python3 interpreter found on PATH")
endif()

# check:fixture:expected exit code
set(cases
    batching:serve_ok:0
    scaling:serve_ok:0
    batching:serve_slow_batching:1
    scaling:serve_slow_batching:0
    batching:serve_poor_scaling:0
    scaling:serve_poor_scaling:1
    batching:serve_errors:1
    scaling:serve_errors:1
    lifecycle:lifecycle_ok:0
    lifecycle:lifecycle_late_drift:1
    lifecycle:lifecycle_tripped:1
    lifecycle:missing:2
)
set(failures "")
foreach(case IN LISTS cases)
    string(REPLACE ":" ";" parts "${case}")
    list(GET parts 0 check)
    list(GET parts 1 fixture)
    list(GET parts 2 want)
    execute_process(
        COMMAND ${WCNN_PYTHON} ${SCRIPT} ${check} ${FIXTURES}/${fixture}.json
        RESULT_VARIABLE got
        OUTPUT_VARIABLE out
        ERROR_VARIABLE err
    )
    if(NOT got EQUAL want)
        string(APPEND failures
               "  ${check} ${fixture}.json: exit ${got}, want ${want}\n${out}${err}")
    endif()
endforeach()
if(failures)
    message(FATAL_ERROR "bench_compare fixtures:\n${failures}")
endif()
