# Pins the storm workload report exactly on an overloaded machine.  Runs
#   STORM --users 20000 --nodes 64 --hosts 1 --horizon-ms 200 --seed 7
# under the none, link_flap, cluster_restart and stub_crash fault plans,
# plus stub_crash and link_flap on four shards (the flapped cable crosses
# shards there), and compares every printed line (headed by the run's
# arguments) against GOLDEN.  One host for 64 nodes saturates
# the allocator, so the member-side GC, member pruning, late-grant frees
# and failed joins all fire — paths the default fault matrix never
# reaches.  With HPCVORX_WRITE_GOLDENS set in the environment the golden
# is rewritten instead (the same switch the gtest goldens use).
#
#   cmake -DSTORM=<storm> -DGOLDEN=<file> -DOUT=<txt> -P this-file
set(base --users 20000 --nodes 64 --hosts 1 --horizon-ms 200 --seed 7)
set(got "")
foreach(run "none" "link_flap" "cluster_restart" "stub_crash"
            "stub_crash --shards 4" "link_flap --shards 4")
  separate_arguments(extra UNIX_COMMAND "--faults ${run}")
  execute_process(COMMAND "${STORM}" ${base} ${extra}
                  RESULT_VARIABLE rc OUTPUT_VARIABLE out ERROR_VARIABLE err)
  if(NOT rc STREQUAL "0")
    message(FATAL_ERROR "storm --faults ${run} exited ${rc}:\n${out}${err}")
  endif()
  string(APPEND got "== --faults ${run}\n${out}")
endforeach()

if(DEFINED ENV{HPCVORX_WRITE_GOLDENS})
  file(WRITE "${GOLDEN}" "${got}")
  message(STATUS "wrote ${GOLDEN}")
  return()
endif()
file(READ "${GOLDEN}" want)
if(NOT got STREQUAL want)
  file(WRITE "${OUT}" "${got}")
  message(FATAL_ERROR "workload report differs from ${GOLDEN}; got "
                      "(also in ${OUT}):\n${got}")
endif()
