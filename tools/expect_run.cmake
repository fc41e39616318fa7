# Runs the command given after `--` and fails unless it exits 0 and:
#   - with EXPECT set, its stdout matches the regex EXPECT;
#   - with FILE set, FILE exists afterwards and has a line matching the
#     regex FILE_EXPECT (FILE is removed before the run);
#   - with FILE_CHECK set (a Python script, run by PYTHON), the script exits
#     0 on FILE.
# ctest's PASS_REGULAR_EXPRESSION ignores the exit code; this checks both.
#
#   cmake [-DEXPECT=re] [-DFILE=path -DFILE_EXPECT=re] \
#         [-DPYTHON=python3 -DFILE_CHECK=script.py] \
#         -P tools/expect_run.cmake -- <command> [args...]
set(command)
set(after_separator FALSE)
math(EXPR last_arg "${CMAKE_ARGC} - 1")
foreach(i RANGE ${last_arg})
  if(after_separator)
    list(APPEND command "${CMAKE_ARGV${i}}")
  elseif(CMAKE_ARGV${i} STREQUAL "--")
    set(after_separator TRUE)
  endif()
endforeach()
if(NOT command)
  message(FATAL_ERROR "expect_run: no command after --")
endif()

if(FILE)
  file(REMOVE "${FILE}")
endif()
execute_process(COMMAND ${command} RESULT_VARIABLE status OUTPUT_VARIABLE out)
message("${out}")
if(NOT status EQUAL 0)
  message(FATAL_ERROR "expect_run: command exited with ${status}")
endif()
if(DEFINED EXPECT AND NOT out MATCHES "${EXPECT}")
  message(FATAL_ERROR "expect_run: stdout does not match '${EXPECT}'")
endif()
if(FILE)
  if(NOT EXISTS "${FILE}")
    message(FATAL_ERROR "expect_run: ${FILE} was not written")
  endif()
  file(STRINGS "${FILE}" matched REGEX "${FILE_EXPECT}")
  if(NOT matched)
    message(FATAL_ERROR "expect_run: no line of ${FILE} matches '${FILE_EXPECT}'")
  endif()
  if(FILE_CHECK)
    execute_process(COMMAND ${PYTHON} ${FILE_CHECK} ${FILE}
                    RESULT_VARIABLE check_status)
    if(NOT check_status EQUAL 0)
      message(FATAL_ERROR "expect_run: ${FILE_CHECK} rejected ${FILE}")
    endif()
  endif()
endif()
