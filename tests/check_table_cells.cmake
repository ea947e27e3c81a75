# Pins every Table 1 / Table 2 latency cell exactly.  Runs
#   RUN_ALL --quick --json OUT table1_sliding_window table2_channels
# and compares each table1.latency_us.* / table2.latency_us.* row, as
# "<metric> <measured>" with the value exactly as the JSON prints it,
# against GOLDEN.  With HPCVORX_WRITE_GOLDENS set in the environment the
# golden is rewritten instead (the same switch the gtest goldens use).
#
#   cmake -DRUN_ALL=<run_all> -DGOLDEN=<file> -DOUT=<json> -P this-file
execute_process(COMMAND "${RUN_ALL}" --quick --json "${OUT}"
                        table1_sliding_window table2_channels
                RESULT_VARIABLE rc OUTPUT_QUIET ERROR_VARIABLE err)
if(NOT rc STREQUAL "0")
  message(FATAL_ERROR "run_all exited ${rc}:\n${err}")
endif()

# bench_main writes one row per line, so a line regex sees each row whole.
file(STRINGS "${OUT}" rows
     REGEX "\"metric\":\"table[12]\\.latency_us\\.[^\"]*\"")
set(got "")
foreach(row IN LISTS rows)
  if(NOT row MATCHES "\"metric\":\"([^\"]*)\".*\"measured\":([^,]*),")
    message(FATAL_ERROR "unparsable row: ${row}")
  endif()
  string(APPEND got "${CMAKE_MATCH_1} ${CMAKE_MATCH_2}\n")
endforeach()
list(LENGTH rows n)
if(NOT n EQUAL 32)
  message(FATAL_ERROR "expected 32 table cells, got ${n}:\n${got}")
endif()

if(DEFINED ENV{HPCVORX_WRITE_GOLDENS})
  file(WRITE "${GOLDEN}" "${got}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()
file(READ "${GOLDEN}" want)
if(NOT got STREQUAL want)
  file(WRITE "${OUT}.cells.txt" "${got}")
  message(FATAL_ERROR "table cells differ from ${GOLDEN}; got "
                      "(also in ${OUT}.cells.txt):\n${got}")
endif()
