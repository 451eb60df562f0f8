/**
 * @file
 * Tests for the reusable long-flag command-line parser shared by
 * astriflash_sim and the bench binaries.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "sim/option_parser.hh"

using namespace astriflash::sim;

namespace {

/** Build an argv-shaped view over string literals. */
class Argv
{
  public:
    explicit Argv(std::vector<std::string> args) : store(std::move(args))
    {
        ptrs.push_back("prog");
        for (const std::string &a : store)
            ptrs.push_back(a.c_str());
    }

    int argc() const { return static_cast<int>(ptrs.size()); }
    const char *const *argv() const { return ptrs.data(); }

  private:
    std::vector<std::string> store;
    std::vector<const char *> ptrs;
};

} // namespace

TEST(OptionParser, ParsesEveryType)
{
    std::string name = "default";
    std::uint64_t jobs = 0;
    std::uint32_t cores = 0;
    double load = 0.0;
    bool footprint = false;
    std::string custom;

    OptionParser opts("prog", "test");
    opts.addString("name", &name, "a string");
    opts.addUint("jobs", &jobs, "a count");
    opts.addUint32("cores", &cores, "a small count");
    opts.addDouble("load", &load, "a fraction");
    opts.addFlag("footprint", &footprint, "a flag");
    opts.addCustom("mode", "NAME", "a custom value",
                   [&](const std::string &v) {
                       custom = v;
                       return v != "bad";
                   });

    const Argv a({"--name=silo", "--jobs=20000", "--cores=8",
                  "--load=0.85", "--footprint", "--mode=fast"});
    EXPECT_EQ(opts.parse(a.argc(), a.argv()), OptionParser::Status::Ok);
    EXPECT_EQ(name, "silo");
    EXPECT_EQ(jobs, 20000u);
    EXPECT_EQ(cores, 8u);
    EXPECT_DOUBLE_EQ(load, 0.85);
    EXPECT_TRUE(footprint);
    EXPECT_EQ(custom, "fast");
}

TEST(OptionParser, DefaultsSurviveWhenFlagsAbsent)
{
    std::uint64_t jobs = 8000;
    bool footprint = false;
    OptionParser opts("prog", "test");
    opts.addUint("jobs", &jobs, "a count");
    opts.addFlag("footprint", &footprint, "a flag");
    const Argv a({});
    EXPECT_EQ(opts.parse(a.argc(), a.argv()), OptionParser::Status::Ok);
    EXPECT_EQ(jobs, 8000u);
    EXPECT_FALSE(footprint);
}

TEST(OptionParser, RejectsUnknownFlag)
{
    OptionParser opts("prog", "test");
    const Argv a({"--nope=1"});
    EXPECT_EQ(opts.parse(a.argc(), a.argv()),
              OptionParser::Status::Error);
    EXPECT_NE(opts.error().find("nope"), std::string::npos);
}

TEST(OptionParser, RejectsBadNumericValue)
{
    std::uint64_t jobs = 0;
    OptionParser opts("prog", "test");
    opts.addUint("jobs", &jobs, "a count");
    const Argv a({"--jobs=many"});
    EXPECT_EQ(opts.parse(a.argc(), a.argv()),
              OptionParser::Status::Error);
}

TEST(OptionParser, RejectsMissingValueForValuedOption)
{
    std::uint64_t jobs = 0;
    OptionParser opts("prog", "test");
    opts.addUint("jobs", &jobs, "a count");
    const Argv a({"--jobs"});
    EXPECT_EQ(opts.parse(a.argc(), a.argv()),
              OptionParser::Status::Error);
}

TEST(OptionParser, CustomHandlerCanReject)
{
    OptionParser opts("prog", "test");
    opts.addCustom("mode", "NAME", "a custom value",
                   [](const std::string &v) { return v != "bad"; });
    const Argv good({"--mode=ok"});
    EXPECT_EQ(opts.parse(good.argc(), good.argv()),
              OptionParser::Status::Ok);
    const Argv bad({"--mode=bad"});
    EXPECT_EQ(opts.parse(bad.argc(), bad.argv()),
              OptionParser::Status::Error);
}

TEST(OptionParser, HelpRequested)
{
    std::uint64_t jobs = 0;
    OptionParser opts("prog", "one-line summary");
    opts.addUint("jobs", &jobs, "measured jobs");
    const Argv a({"--help"});
    EXPECT_EQ(opts.parse(a.argc(), a.argv()),
              OptionParser::Status::Help);
    const std::string u = opts.usage();
    EXPECT_NE(u.find("prog"), std::string::npos);
    EXPECT_NE(u.find("one-line summary"), std::string::npos);
    EXPECT_NE(u.find("--jobs"), std::string::npos);
    EXPECT_NE(u.find("measured jobs"), std::string::npos);
    EXPECT_NE(u.find("--help"), std::string::npos);
}

TEST(OptionParser, RejectsPositionalArgument)
{
    OptionParser opts("prog", "test");
    const Argv a({"stray"});
    EXPECT_EQ(opts.parse(a.argc(), a.argv()),
              OptionParser::Status::Error);
}
