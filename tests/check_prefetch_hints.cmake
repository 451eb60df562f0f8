# The host prefetch hints must survive the compiler, run as a ctest.
#
#   cmake -DOBJDUMP=<objdump> -DOBJECT=<sim_core.cc object>
#         -P check_prefetch_hints.cmake
#
# Disassembles SimCore::run() (the one-op-ahead hint) and
# SimCore::warm() (the event hook) from the object and fails unless
# each holds a prefetch instruction. GCC 12 at -O2 compiled run()'s
# hints to nothing, without a warning, until the hint helpers were
# made always_inline (DESIGN.md §9.4).

if(NOT EXISTS "${OBJECT}")
    message(FATAL_ERROR "no object to check: '${OBJECT}'")
endif()

foreach(symbol
        _ZN10astriflash4core7SimCore3runEv
        _ZN10astriflash4core7SimCore4warmEPv)
    execute_process(
        COMMAND "${OBJDUMP}" -d "--disassemble=${symbol}" "${OBJECT}"
        RESULT_VARIABLE rc
        OUTPUT_VARIABLE disasm
        ERROR_VARIABLE stderr_text)
    if(NOT rc EQUAL 0)
        message(FATAL_ERROR
            "${OBJDUMP} -d failed (rc=${rc}):\n${stderr_text}")
    endif()
    if(NOT disasm MATCHES "<${symbol}>:")
        message(FATAL_ERROR "${symbol} not found in ${OBJECT}")
    endif()
    string(REGEX MATCHALL "[ \t]prefetch[a-z0-9]*[ \t]" hits "${disasm}")
    list(LENGTH hits count)
    if(count EQUAL 0)
        message(FATAL_ERROR
            "no prefetch instruction in ${symbol}: the compiler dropped "
            "the host prefetch hints")
    endif()
    message(STATUS "${count} prefetch instructions in ${symbol}")
endforeach()
