# Project-include hook: `cmake -S <repo> -DCMAKE_PROJECT_INCLUDE=<this file>`
# configures the repository exactly as its own top-level CMakeLists does and
# adds the perfbench binary from this directory.  Its target names library
# targets that are defined later in the configure; CMake resolves target
# names at generate time, so the order is fine.  The guard keeps a later
# project() call from adding it twice.
include_guard(GLOBAL)
add_subdirectory(${CMAKE_CURRENT_LIST_DIR} perfbench)
