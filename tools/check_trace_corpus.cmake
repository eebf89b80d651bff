# Regenerates the v2 mini-corpus into OUT with the generator GEN and
# fails unless every file equals its committed copy in CORPUS byte
# for byte: the encoder may change only in ways that leave the bytes
# it writes unchanged.
#
# cmake -DGEN=<gen_trace_corpus> -DCORPUS=<bench/corpus> -DOUT=<dir>
#       -P check_trace_corpus.cmake

file(REMOVE_RECURSE "${OUT}")
file(MAKE_DIRECTORY "${OUT}")
execute_process(COMMAND "${GEN}" "${OUT}" RESULT_VARIABLE rc)
if(NOT rc EQUAL 0)
  message(FATAL_ERROR "${GEN} failed: ${rc}")
endif()
file(GLOB committed RELATIVE "${CORPUS}" "${CORPUS}/*.v2.trc")
list(LENGTH committed n)
if(n EQUAL 0)
  message(FATAL_ERROR "no *.v2.trc files in ${CORPUS}")
endif()
foreach(name IN LISTS committed)
  execute_process(COMMAND "${CMAKE_COMMAND}" -E compare_files
                  "${CORPUS}/${name}" "${OUT}/${name}"
                  RESULT_VARIABLE differs)
  if(NOT differs EQUAL 0)
    message(FATAL_ERROR "${name}: regenerated bytes differ from the "
                        "committed corpus")
  endif()
endforeach()
message(STATUS "${n} corpus files reproduced byte for byte")
