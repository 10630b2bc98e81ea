# Byte oracle for the committed artifacts: run each deterministic
# artifact bench at GATEKIT_WORKERS=1 and 8 and compare its stdout with
# results/<name>.txt. The simulator is deterministic and worker-count
# invariant, so any byte difference is a behaviour change.
#
#   cmake -DBENCH_DIR=<dir holding the bench binaries>
#         -DRESULTS_DIR=<repo>/results -DWORK_DIR=<output dir>
#         -P artifact_identity.cmake
#
# fig08_tcp2, fig09_tcp3 (about 30 s together) and population_campaign
# (about 9 s and 80 MB of telemetry sidecars per run) are left to a
# manual cmp.
foreach(var BENCH_DIR RESULTS_DIR WORK_DIR)
  if(NOT DEFINED ${var})
    message(FATAL_ERROR "artifact_identity: -D${var}=... is required")
  endif()
endforeach()

set(benches
  table1_devices table2_other
  fig02_udp_timeouts fig03_udp1 fig04_udp2 fig05_udp3 fig06_udp5
  fig07_tcp1 fig10_tcp4 udp4_port_reuse
  holepunch_matrix attack_matrix cgn_matrix ablation futurework
  adversary_sweep)

file(MAKE_DIRECTORY "${WORK_DIR}")
set(failures "")
foreach(workers 1 8)
  foreach(name IN LISTS benches)
    set(out "${WORK_DIR}/${name}.w${workers}.txt")
    # The benches' own knobs (device subsets, CSV sidecars) must not
    # leak in from the caller's environment.
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E env --unset=GATEKIT_DEVICES
              --unset=GATEKIT_CSV GATEKIT_WORKERS=${workers}
              "${BENCH_DIR}/${name}"
      WORKING_DIRECTORY "${WORK_DIR}"
      OUTPUT_FILE "${out}"
      ERROR_VARIABLE err
      RESULT_VARIABLE rc)
    if(NOT rc EQUAL 0)
      list(APPEND failures "${name} (workers=${workers}): exit ${rc}")
      message(STATUS "${name} stderr:\n${err}")
      continue()
    endif()
    execute_process(
      COMMAND "${CMAKE_COMMAND}" -E compare_files
              "${out}" "${RESULTS_DIR}/${name}.txt"
      RESULT_VARIABLE differs)
    if(differs)
      list(APPEND failures
           "${name} (workers=${workers}): ${out} differs from results/")
    endif()
  endforeach()
endforeach()

if(failures)
  list(JOIN failures "\n  " report)
  message(FATAL_ERROR "artifact bytes changed:\n  ${report}")
endif()
list(LENGTH benches n)
message(STATUS "artifact_identity: ${n} artifacts byte-identical at "
               "GATEKIT_WORKERS=1 and 8")
