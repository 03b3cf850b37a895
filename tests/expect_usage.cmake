# Runs a command line and passes only when it exits 1 and prints "usage:".
#
#   cmake -P tests/expect_usage.cmake <program> [args...]
set(command "")
math(EXPR last "${CMAKE_ARGC} - 1")
foreach(i RANGE 3 ${last})
  list(APPEND command "${CMAKE_ARGV${i}}")
endforeach()
execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_VARIABLE out ERROR_VARIABLE err)
if(NOT status EQUAL 1)
  message(FATAL_ERROR "exit status ${status}, expected 1\n${out}${err}")
endif()
if(NOT out MATCHES "usage:")
  message(FATAL_ERROR "no usage printed\n${out}${err}")
endif()
