# Runs PROGRAM and compares its standard output byte for byte with GOLDEN.
# With CELLFI_UPDATE_GOLDEN set in the environment it rewrites GOLDEN from
# the run instead. On a mismatch the run's output is left in ACTUAL.
#
#   cmake -DPROGRAM=<exe> -DGOLDEN=<file> -DACTUAL=<file> -P golden_stdout.cmake
execute_process(COMMAND ${PROGRAM} OUTPUT_VARIABLE out RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${PROGRAM} exited with status ${rc}")
endif()
if(DEFINED ENV{CELLFI_UPDATE_GOLDEN})
  file(WRITE "${GOLDEN}" "${out}")
  message(STATUS "rewrote ${GOLDEN}")
  return()
endif()
file(READ "${GOLDEN}" expected)
if(NOT out STREQUAL expected)
  file(WRITE "${ACTUAL}" "${out}")
  find_program(DIFF diff)
  if(DIFF)
    execute_process(COMMAND ${DIFF} -u "${GOLDEN}" "${ACTUAL}")
  endif()
  message(FATAL_ERROR "output of ${PROGRAM} differs from ${GOLDEN} (run output in "
                      "${ACTUAL}); regenerate with CELLFI_UPDATE_GOLDEN=1 if the "
                      "change is intended")
endif()
