// gfctl's count, size and bounded number flags, driven through the
// binary: a count that is not a whole number, is negative, or asks for
// zero steps, a size that is not a finite positive number, and a number
// outside its flag's range, exits 1 before any trace, model or thread pool
// is touched, and writes no output file. So does a data-parallel shard
// count beyond the runner's reduction tree, which the runner's constructor
// rejects after the model is built. Only values rejected before a pool
// exists are tested here.
#include <gtest/gtest.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

namespace fs = std::filesystem;

fs::path scratch_path(const std::string& name) {
  return fs::temp_directory_path() /
         ("gfctl_args_" + std::to_string(::getpid()) + "_" + name);
}

/// Runs gfctl with `args`; returns its exit status (-1 if it did not exit)
/// and, if `err` is set, stores what it wrote to stderr.
int run_gfctl(const std::string& args, std::string* err = nullptr) {
  const fs::path err_path = scratch_path("stderr.txt");
  const std::string cmd =
      std::string(GF_GFCTL_PATH) + " " + args + " > /dev/null 2> " + err_path.string();
  const int status = std::system(cmd.c_str());
  if (err != nullptr) {
    std::ifstream in(err_path);
    std::ostringstream text;
    text << in.rdbuf();
    *err = text.str();
  }
  fs::remove(err_path);
  return WIFEXITED(status) ? WEXITSTATUS(status) : -1;
}

TEST(GfctlArgs, TraceRejectsBadCountFlagsAndWritesNoFile) {
  for (const std::string flags : {"--steps 0", "--threads -1", "--threads abc"}) {
    const fs::path out = scratch_path("trace.json");
    fs::remove(out);
    EXPECT_EQ(run_gfctl("trace wordlm " + out.string() + " " + flags), 1) << flags;
    EXPECT_FALSE(fs::exists(out)) << flags;
  }
}

TEST(GfctlArgs, SizeFlagsMustBeFinitePositiveNumbers) {
  struct Case {
    const char* command;
    const char* flag;
    const char* value;
  };
  for (const Case& c : {Case{"fuse transformer", "batch", "-3"},
                        Case{"characterize wordlm", "batch", "nan"},
                        Case{"fuse transformer", "hidden", "nan"},
                        Case{"subbatch wordlm", "params", "nan"},
                        Case{"characterize wordlm", "params", "12abc"},
                        Case{"sweep wordlm", "from", "0"},
                        Case{"sweep wordlm", "to", "inf"},
                        Case{"memplan image", "hidden", "1e400"},
                        Case{"datapar", "bucket-kb", "inf"}}) {
    const std::string args = std::string(c.command) + " --" + c.flag + " " + c.value;
    std::string err;
    EXPECT_EQ(run_gfctl(args, &err), 1) << args;
    EXPECT_EQ(err, std::string("gfctl: --") + c.flag +
                       " must be a finite positive number, got '" + c.value + "'\n")
        << args;
  }
}

TEST(GfctlArgs, NumberFlagsMustLieInTheirRanges) {
  // The trace path does not exist: range checks run before it is read.
  const std::string missing = scratch_path("missing.json").string();
  fs::remove(missing);
  const std::string whatif = "whatif " + missing;
  struct Case {
    std::string command;
    const char* flag;
    const char* value;
    const char* range;
  };
  for (const Case& c : {Case{whatif, "overhead", "nan", ">= 0"},
                        Case{whatif, "overhead", "-1e-6", ">= 0"},
                        Case{whatif + " --scale MatMul", "speedup", "0", "> 0"},
                        Case{whatif + " --scale MatMul", "speedup", "inf", "> 0"},
                        Case{whatif, "memory-weight", "1.5", "in [0, 1]"},
                        Case{whatif, "memory-weight", "-0.1", "in [0, 1]"},
                        Case{"datapar", "straggler", "nan", ">= 0"},
                        Case{"datapar", "straggler", "-0.5", ">= 0"}}) {
    const std::string args = c.command + " --" + c.flag + " " + c.value;
    std::string err;
    EXPECT_EQ(run_gfctl(args, &err), 1) << args;
    EXPECT_EQ(err, std::string("gfctl: --") + c.flag + " must be a finite number " +
                       c.range + ", got '" + c.value + "'\n")
        << args;
  }
  // In-range values pass the checks and reach the trace read (exit 2).
  EXPECT_EQ(run_gfctl(whatif + " --overhead 0 --speedup 0.5 --memory-weight 1"), 2);
}

TEST(GfctlArgs, DataparRejectsZeroSteps) {
  const fs::path prefix = scratch_path("datapar");
  // 128 shards exceed the runner's 64-leaf reduction tree.
  for (const std::string flags : {"--steps 0", "--shards 128"}) {
    EXPECT_EQ(run_gfctl("datapar " + flags + " --trace " + prefix.string()), 1) << flags;
    for (const int n : {1, 2, 4, 8})
      EXPECT_FALSE(fs::exists(prefix.string() + "." + std::to_string(n) + "w.json"))
          << flags;
  }
}

}  // namespace
