#include "option_parser.hh"

#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

namespace astriflash::sim {

namespace {

/**
 * Parse @p v as a plain decimal count. strtoull alone would take a
 * sign or leading space ("-1" wraps to 2^64-1) and saturate on
 * overflow, so the value must start with a digit and fit.
 */
bool
parseCount(const std::string &v, unsigned long long *out)
{
    if (v.empty() || v[0] < '0' || v[0] > '9')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long parsed = std::strtoull(v.c_str(), &end, 10);
    if (*end != '\0' || errno == ERANGE)
        return false;
    *out = parsed;
    return true;
}

} // namespace

OptionParser::OptionParser(std::string program_name,
                           std::string description_text)
    : program(std::move(program_name)),
      description(std::move(description_text))
{
}

void
OptionParser::addString(const std::string &name, std::string *out,
                        const std::string &help)
{
    addCustom(name, "STR", help, [out](const std::string &v) {
        *out = v;
        return true;
    });
}

void
OptionParser::addUint(const std::string &name, std::uint64_t *out,
                      const std::string &help,
                      std::function<bool(std::uint64_t)> valid)
{
    addCustom(name, "N", help,
              [out, valid = std::move(valid)](const std::string &v) {
                  unsigned long long parsed = 0;
                  if (!parseCount(v, &parsed) || (valid && !valid(parsed)))
                      return false;
                  *out = parsed;
                  return true;
              });
}

void
OptionParser::addUint32(const std::string &name, std::uint32_t *out,
                        const std::string &help,
                        std::function<bool(std::uint32_t)> valid)
{
    addCustom(name, "N", help,
              [out, valid = std::move(valid)](const std::string &v) {
                  unsigned long long parsed = 0;
                  if (!parseCount(v, &parsed) || parsed > ~std::uint32_t{0})
                      return false;
                  const auto narrow = static_cast<std::uint32_t>(parsed);
                  if (valid && !valid(narrow))
                      return false;
                  *out = narrow;
                  return true;
              });
}

void
OptionParser::addDouble(const std::string &name, double *out,
                        const std::string &help,
                        std::function<bool(double)> valid)
{
    addCustom(name, "F", help,
              [out, valid = std::move(valid)](const std::string &v) {
                  char *end = nullptr;
                  const double parsed = std::strtod(v.c_str(), &end);
                  if (end == v.c_str() || *end != '\0' ||
                      !std::isfinite(parsed) || (valid && !valid(parsed)))
                      return false;
                  *out = parsed;
                  return true;
              });
}

void
OptionParser::addFlag(const std::string &name, bool *out,
                      const std::string &help)
{
    Option opt;
    opt.name = name;
    opt.help = help;
    opt.flag = out;
    options.push_back(std::move(opt));
}

void
OptionParser::addCustom(const std::string &name,
                        const std::string &value_name,
                        const std::string &help,
                        std::function<bool(const std::string &)> handler)
{
    Option opt;
    opt.name = name;
    opt.valueName = value_name;
    opt.help = help;
    opt.handler = std::move(handler);
    options.push_back(std::move(opt));
}

const OptionParser::Option *
OptionParser::find(const std::string &name) const
{
    for (const Option &opt : options) {
        if (opt.name == name)
            return &opt;
    }
    return nullptr;
}

OptionParser::Status
OptionParser::parse(int argc, const char *const *argv)
{
    errorMsg.clear();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--help" || arg == "-h")
            return Status::Help;
        if (arg.size() < 3 || arg.compare(0, 2, "--") != 0) {
            errorMsg = "unexpected argument '" + arg + "'";
            return Status::Error;
        }
        const std::size_t eq = arg.find('=');
        const std::string name =
            arg.substr(2, eq == std::string::npos ? std::string::npos
                                                  : eq - 2);
        const Option *opt = find(name);
        if (!opt) {
            errorMsg = "unknown flag '--" + name + "'";
            return Status::Error;
        }
        if (opt->flag) {
            if (eq != std::string::npos) {
                errorMsg = "flag '--" + name + "' takes no value";
                return Status::Error;
            }
            *opt->flag = true;
            continue;
        }
        if (eq == std::string::npos) {
            errorMsg = "flag '--" + name + "' needs =" + opt->valueName;
            return Status::Error;
        }
        const std::string value = arg.substr(eq + 1);
        if (!opt->handler(value)) {
            errorMsg = "bad value '" + value + "' for '--" + name + "'";
            return Status::Error;
        }
    }
    return Status::Ok;
}

void
OptionParser::parseOrExit(int argc, const char *const *argv)
{
    switch (parse(argc, argv)) {
      case Status::Ok:
        return;
      case Status::Help:
        std::fputs(usage().c_str(), stdout);
        std::exit(0);
      case Status::Error:
        std::fprintf(stderr, "%s: %s\n\n%s", program.c_str(),
                     errorMsg.c_str(), usage().c_str());
        std::exit(2);
    }
}

std::string
OptionParser::usage() const
{
    std::string out = "usage: " + program + " [flags]\n";
    if (!description.empty())
        out += "  " + description + "\n";
    out += "\nflags:\n";
    for (const Option &opt : options) {
        std::string lhs = "  --" + opt.name;
        if (!opt.valueName.empty())
            lhs += "=" + opt.valueName;
        if (lhs.size() < 26)
            lhs.resize(26, ' ');
        else
            lhs += ' ';
        out += lhs + opt.help + "\n";
    }
    out += "  --help                  show this message\n";
    return out;
}

} // namespace astriflash::sim
