# Pins bench rows.  Reads the rows of a run_all --quick --json file and
# writes one line per row: "<metric> <unit> <measured>" for a virtual-clock
# row, with the value exactly as the JSON prints it, and
# "<metric> <unit> <clock>" for a wall-clock row, whose value differs on
# every run.  Compares the lines against GOLDEN, so a moved, dropped, added
# or reclassified row is a reviewed golden diff.
#
# With ROWS (a regex on the line) only the matching lines of the run and of
# the golden are compared, and with COUNT the run must have exactly that
# many of them.  With HPCVORX_WRITE_GOLDENS set in the environment the
# golden is rewritten instead (the same switch the gtest goldens use); a
# ROWS check leaves the golden to the whole-file check.
#
#   cmake -DJSON=<json> -DGOLDEN=<file> [-DROWS=<regex>] [-DCOUNT=<n>]
#         -P this-file
if(NOT EXISTS "${JSON}")
  message(FATAL_ERROR "${JSON} is missing: bench_smoke writes it")
endif()

# bench_main writes one row per line, so a line regex sees each row whole.
file(STRINGS "${JSON}" rows REGEX "\"metric\":")
set(got "")
set(n 0)
foreach(row IN LISTS rows)
  if(NOT row MATCHES "\"metric\":\"([^\"]*)\",\"unit\":\"([^\"]*)\",\"clock\":\"([^\"]*)\",\"measured\":([^,]*),")
    message(FATAL_ERROR "unparsable row: ${row}")
  endif()
  if(CMAKE_MATCH_3 STREQUAL "virtual")
    set(line "${CMAKE_MATCH_1} ${CMAKE_MATCH_2} ${CMAKE_MATCH_4}")
  else()
    set(line "${CMAKE_MATCH_1} ${CMAKE_MATCH_2} ${CMAKE_MATCH_3}")
  endif()
  if(NOT DEFINED ROWS OR line MATCHES "${ROWS}")
    string(APPEND got "${line}\n")
    math(EXPR n "${n} + 1")
  endif()
endforeach()
if(DEFINED COUNT AND NOT n EQUAL COUNT)
  message(FATAL_ERROR "expected ${COUNT} rows matching ${ROWS}, got ${n}:\n"
                      "${got}")
endif()

if(DEFINED ENV{HPCVORX_WRITE_GOLDENS})
  if(NOT DEFINED ROWS)
    file(WRITE "${GOLDEN}" "${got}")
    message(STATUS "wrote ${GOLDEN}")
  endif()
  return()
endif()
file(STRINGS "${GOLDEN}" want_lines)
if(DEFINED ROWS)
  list(FILTER want_lines INCLUDE REGEX "${ROWS}")
endif()
set(want "")
foreach(line IN LISTS want_lines)
  string(APPEND want "${line}\n")
endforeach()
if(NOT got STREQUAL want)
  file(WRITE "${JSON}.rows.txt" "${got}")
  # Name the rows: lines only in the golden, then lines only in this run.
  # Both lists are empty only when the rows merely changed order.
  string(REPLACE "\n" ";" got_lines "${got}")
  set(gone ${want_lines})
  set(new ${got_lines})
  list(REMOVE_ITEM gone ${got_lines} "")
  list(REMOVE_ITEM new ${want_lines} "")
  list(JOIN gone "\n  - " gone)
  list(JOIN new "\n  + " new)
  message(FATAL_ERROR "bench rows differ from ${GOLDEN} (this run's rows "
                      "are in ${JSON}.rows.txt):\n"
                      "only in the golden:\n  - ${gone}\n"
                      "only in this run:\n  + ${new}")
endif()
