/**
 * @file
 * Small reusable command-line option parser.
 *
 * Replaces the hand-rolled flagValue()/strcmp chains the front end and
 * bench binaries grew independently. Long flags only, in the repo's
 * existing `--name=value` convention (bool flags are bare `--name`),
 * with typed destinations and an auto-generated `--help`.
 *
 *   sim::OptionParser opts("astriflash_sim", "run one configuration");
 *   opts.addUint("cores", &cores, "number of simulated cores");
 *   opts.addDouble("load", &load, "open-loop load fraction");
 *   opts.addFlag("footprint", &footprint, "enable footprint caching");
 *   opts.parseOrExit(argc, argv);
 *
 * parse() never exits (tests drive it directly); parseOrExit() prints
 * usage and exits on error or --help, the behaviour binaries want.
 */

#ifndef ASTRIFLASH_SIM_OPTION_PARSER_HH
#define ASTRIFLASH_SIM_OPTION_PARSER_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

namespace astriflash::sim {

/** Typed long-flag command-line parser. */
class OptionParser
{
  public:
    /** Outcome of parse(). */
    enum class Status {
        Ok,       ///< All arguments consumed.
        Help,     ///< --help was requested; usage() has the text.
        Error,    ///< Bad flag or value; error() has the message.
    };

    /**
     * @param program      argv[0]-style name for the usage header.
     * @param description  One-line summary printed under the header.
     */
    OptionParser(std::string program, std::string description);

    /** String option `--name=value`. */
    void addString(const std::string &name, std::string *out,
                   const std::string &help);

    /** Unsigned integer option `--name=N`. */
    void addUint(const std::string &name, std::uint64_t *out,
                 const std::string &help);

    /** 32-bit unsigned option `--name=N`. */
    void addUint32(const std::string &name, std::uint32_t *out,
                   const std::string &help);

    /** Floating-point option `--name=F`. */
    void addDouble(const std::string &name, double *out,
                   const std::string &help);

    /** Presence flag `--name` (sets *out = true). */
    void addFlag(const std::string &name, bool *out,
                 const std::string &help);

    /**
     * Option with a custom value handler (enums, unit suffixes).
     * The handler returns false to reject the value.
     * @param value_name  Placeholder shown in --help (e.g. "NAME").
     */
    void addCustom(const std::string &name, const std::string &value_name,
                   const std::string &help,
                   std::function<bool(const std::string &value)> handler);

    /** Parse argv[1..); stops at the first error. */
    Status parse(int argc, const char *const *argv);

    /** parse(), printing usage/errors; exits unless Status::Ok. */
    void parseOrExit(int argc, const char *const *argv);

    /** Auto-generated usage text. */
    std::string usage() const;

    /** Message describing the last parse error. */
    const std::string &error() const { return errorMsg; }

  private:
    struct Option {
        std::string name;      ///< Without the leading "--".
        std::string valueName; ///< Empty for presence flags.
        std::string help;
        std::function<bool(const std::string &)> handler; ///< Valued.
        bool *flag = nullptr;  ///< Presence flag destination.
    };

    const Option *find(const std::string &name) const;

    std::string program;
    std::string description;
    std::vector<Option> options;
    std::string errorMsg;
};

} // namespace astriflash::sim

#endif // ASTRIFLASH_SIM_OPTION_PARSER_HH
