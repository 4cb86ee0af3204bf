// gfctl's count flags, driven through the binary: a count that is not a
// whole number, is negative, or asks for zero steps exits 1 before any
// model or thread pool is built, and writes no output file. Only values
// rejected before a pool exists are tested here.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>

namespace {

namespace fs = std::filesystem;

/// Runs gfctl with `args`; returns its exit status (-1 if it did not exit).
int run_gfctl(const std::string& args) {
  const std::string cmd = std::string(GF_GFCTL_PATH) + " " + args + " > /dev/null 2>&1";
  const int status = std::system(cmd.c_str());
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

fs::path scratch_path(const std::string& name) {
  return fs::temp_directory_path() /
         ("gfctl_args_" + std::to_string(::getpid()) + "_" + name);
}

TEST(GfctlArgs, TraceRejectsBadCountFlagsAndWritesNoFile) {
  for (const std::string flags : {"--steps 0", "--threads -1", "--threads abc"}) {
    const fs::path out = scratch_path("trace.json");
    fs::remove(out);
    EXPECT_EQ(run_gfctl("trace wordlm " + out.string() + " " + flags), 1) << flags;
    EXPECT_FALSE(fs::exists(out)) << flags;
  }
}

TEST(GfctlArgs, DataparRejectsZeroSteps) {
  const fs::path prefix = scratch_path("datapar");
  EXPECT_EQ(run_gfctl("datapar --steps 0 --trace " + prefix.string()), 1);
  for (const int n : {1, 2, 4, 8})
    EXPECT_FALSE(fs::exists(prefix.string() + "." + std::to_string(n) + "w.json"));
}

}  // namespace
