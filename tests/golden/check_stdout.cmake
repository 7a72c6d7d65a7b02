# Runs one example and compares its standard output byte for byte with a
# checked-in golden file.
#
#   cmake -DEXAMPLE=<binary> -DGOLDEN=<golden file> -DACTUAL=<output file>
#         -P check_stdout.cmake
#
# After an intended output change, regenerate the golden by copying ACTUAL
# over it and say why in the commit.
execute_process(COMMAND "${EXAMPLE}" OUTPUT_FILE "${ACTUAL}" RESULT_VARIABLE status)
if(NOT status EQUAL 0)
  message(FATAL_ERROR "${EXAMPLE} exited with ${status}")
endif()
execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files "${GOLDEN}" "${ACTUAL}"
                RESULT_VARIABLE differs)
if(differs)
  message(FATAL_ERROR "stdout of ${EXAMPLE} differs from ${GOLDEN}; it is in ${ACTUAL}")
endif()
