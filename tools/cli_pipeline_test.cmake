# End-to-end CLI smoke: collect (analytic) -> fit -> predict ->
# surface -> recommend, in a scratch directory.
set(work ${CMAKE_CURRENT_BINARY_DIR}/cli_pipeline_work)
file(REMOVE_RECURSE ${work})
file(MAKE_DIRECTORY ${work})

function(run)
    execute_process(COMMAND ${ARGV} WORKING_DIRECTORY ${work} TIMEOUT 300
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR "command failed (${rc}): ${ARGV}\n${out}\n${err}")
    endif()
endfunction()

run(${WCNN} collect --out s.csv --samples 40 --analytic --seed 3)
run(${WCNN} fit --data s.csv --out m.nn --units 10 --cv --tag smoke)
run(${WCNN} predict --model m.nn --config 560,10,16,18)
run(${WCNN} surface --model m.nn --indicator 1)
run(${WCNN} recommend --model m.nn --data s.csv --top 3)

# Streaming predict: two config lines in, two CSV prediction lines out.
file(WRITE ${work}/configs.txt "560,10,16,18\n560,4,16,14\n")
execute_process(COMMAND ${WCNN} predict --model m.nn --stdin
                INPUT_FILE ${work}/configs.txt
                WORKING_DIRECTORY ${work}
                RESULT_VARIABLE rc OUTPUT_VARIABLE stream_out
                ERROR_VARIABLE err)
if(NOT rc EQUAL 0)
    message(FATAL_ERROR "predict --stdin failed (${rc}): ${err}")
endif()
string(REGEX MATCHALL "\n" stream_newlines "${stream_out}")
list(LENGTH stream_newlines stream_lines)
if(NOT stream_lines EQUAL 2)
    message(FATAL_ERROR
            "predict --stdin: expected 2 lines, got ${stream_lines}:\n"
            "${stream_out}")
endif()

# Serving smoke: the shipped server answers every JSON-lines request
# with the reply `predict --stdin` implies, and drains cleanly.
find_program(WCNN_PYTHON NAMES python3 python REQUIRED)
run(${WCNN_PYTHON} ${CMAKE_CURRENT_LIST_DIR}/serve_smoke.py ${WCNN} m.nn)

# Out-of-range serving flags are usage errors (exit 2), not wrapped.
file(WRITE ${work}/empty.txt "")
foreach(flag "--port;70000" "--max-batch;0")
    execute_process(COMMAND ${WCNN} serve --model m.nn ${flag}
                    INPUT_FILE ${work}/empty.txt
                    WORKING_DIRECTORY ${work} TIMEOUT 30
                    RESULT_VARIABLE rc OUTPUT_VARIABLE out
                    ERROR_VARIABLE err)
    if(NOT rc EQUAL 2)
        message(FATAL_ERROR
                "serve ${flag}: exit ${rc}, want 2\n${out}\n${err}")
    endif()
endforeach()
message(STATUS "cli pipeline OK")
