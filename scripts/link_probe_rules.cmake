# Platform-rule override for scripts/link_probe.sh (loaded through
# CMAKE_USER_MAKE_RULES_OVERRIDE after CMake's Linux rules).
#
# The root CMakeLists.txt turns on CMAKE_ENABLE_EXPORTS so the sampling
# profiler's dladdr can name frames in the binaries. That puts -rdynamic
# (and --export-dynamic) on every executable's link line, after
# CMAKE_EXE_LINKER_FLAGS, and an exported function is never garbage
# collected: --gc-sections would keep every function and the probe would
# find nothing. Emptying the two flags here drops the export for the probe's
# build only, without a project option.
set(CMAKE_EXE_EXPORTS_CXX_FLAG "")
set(CMAKE_SHARED_LIBRARY_LINK_CXX_FLAGS "")
