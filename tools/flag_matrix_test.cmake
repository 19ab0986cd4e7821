# Flag-matrix test: read the usage text that `cosmos` (no arguments)
# generates from its flag table, and for every command line in it run
# each flag the line does not list, one process at a time. Each run
# must exit 2 with "<flag> is not used by this command" and the usage.
# Flags that every command reads are skipped.
cmake_minimum_required(VERSION 3.16)
execute_process(COMMAND ${CLI} RESULT_VARIABLE rc OUTPUT_QUIET
                ERROR_VARIABLE usage)
if(NOT rc STREQUAL "2")
    message(FATAL_ERROR "cosmos with no arguments: exit '${rc}', not 2")
endif()

# Brackets and semicolons would split CMake list items unevenly.
string(REPLACE "[" "(" text "${usage}")
string(REPLACE "]" ")" text "${text}")
string(REPLACE ";" "," text "${text}")
# Join each command's wrapped continuation lines onto it.
string(REGEX REPLACE "\n        +" " " text "${text}")
string(REPLACE "\n" ";" lines "${text}")

set(commands)
set(flags)  # the flags some but not every command reads
set(valued) # the flags that take a value
foreach(line IN LISTS lines)
    if(line MATCHES "^  cosmos (.*)$")
        list(APPEND commands "${CMAKE_MATCH_1}")
    elseif(line MATCHES "^  (--[a-z-]+)( [A-Z]+)?(.*)$")
        set(flag "${CMAKE_MATCH_1}")
        if(CMAKE_MATCH_2)
            list(APPEND valued "${flag}")
        endif()
        if(NOT CMAKE_MATCH_3 MATCHES "every command:")
            list(APPEND flags "${flag}")
        endif()
    endif()
endforeach()
list(REMOVE_DUPLICATES flags)

set(pairs 0)
foreach(synopsis IN LISTS commands)
    # The command line up to its first optional flag, with a dummy for
    # each placeholder (<kernel>, PATH, SPEC): the rejection comes
    # before anything reads it.
    string(REGEX MATCH "^[a-z]+( --[a-z-]+ [A-Z]+)?( <[a-z]+>)?" head
           "${synopsis}")
    string(REGEX REPLACE " ([A-Z]+|<[a-z]+>)" " x" head "${head}")
    separate_arguments(base UNIX_COMMAND "${head}")
    string(REGEX MATCHALL "--[a-z-]+" listed "${synopsis}")
    foreach(flag IN LISTS flags)
        if(flag IN_LIST listed)
            continue()
        endif()
        set(value)
        if(flag IN_LIST valued)
            set(value 1)
        endif()
        execute_process(COMMAND ${CLI} ${base} ${flag} ${value}
                        RESULT_VARIABLE rc OUTPUT_QUIET
                        ERROR_VARIABLE err)
        if(NOT rc STREQUAL "2" OR
           NOT err MATCHES "${flag} is not used by this command" OR
           NOT err MATCHES "usage: cosmos")
            message(FATAL_ERROR "cosmos ${base} ${flag} ${value}: exit "
                "'${rc}', not 2 with '${flag} is not used by this "
                "command' and the usage\n${err}")
        endif()
        math(EXPR pairs "${pairs} + 1")
    endforeach()
endforeach()

# A usage format this parser no longer understands must not pass by
# checking nothing.
if(pairs LESS 100)
    message(FATAL_ERROR "only ${pairs} (command, flag) pairs checked")
endif()
message(STATUS "${pairs} (command, flag) pairs rejected")
