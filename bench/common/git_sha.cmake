# Writes the commit the benches are built from into a one-function source
# file, so every BENCH_*.json records where it was measured. Run at build
# time (see bench/CMakeLists.txt); the file is rewritten only when its
# content changes, so an unchanged checkout triggers no recompilation.
#
#   cmake -DSOURCE_DIR=<repo> -DOUTPUT=<file.cpp> -P git_sha.cmake
#
# The value is the HEAD commit, suffixed "-dirty" when tracked files differ
# from it, or "unknown" outside a git checkout.

set(sha "unknown")
execute_process(COMMAND git -C "${SOURCE_DIR}" rev-parse HEAD
  OUTPUT_VARIABLE head OUTPUT_STRIP_TRAILING_WHITESPACE
  RESULT_VARIABLE rc ERROR_QUIET)
if(rc EQUAL 0 AND NOT head STREQUAL "")
  set(sha "${head}")
  execute_process(
    COMMAND git -C "${SOURCE_DIR}" status --porcelain --untracked-files=no
    OUTPUT_VARIABLE changes RESULT_VARIABLE rc ERROR_QUIET)
  if(NOT rc EQUAL 0 OR NOT changes STREQUAL "")
    set(sha "${sha}-dirty")
  endif()
endif()

set(content "// Generated by bench/common/git_sha.cmake; do not edit.\n\
namespace hp::bench {\n\
const char* git_sha() { return \"${sha}\"; }\n\
}  // namespace hp::bench\n")
set(old "")
if(EXISTS "${OUTPUT}")
  file(READ "${OUTPUT}" old)
endif()
if(NOT old STREQUAL content)
  file(WRITE "${OUTPUT}" "${content}")
endif()
