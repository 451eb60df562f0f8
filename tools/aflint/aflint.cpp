/**
 * @file
 * aflint: AstriFlash repository lint.
 *
 * A fast, dependency-free token/regex scan that enforces the
 * simulator's determinism and hygiene rules over src/, tools/, bench/
 * and tests/ (see DESIGN.md §8 for the rationale behind each rule):
 *
 *   AF001  no wall-clock or libc randomness in simulator code
 *   AF002  no raw new/delete expressions (use RAII owners)
 *   AF003  no stdout writes from library code under src/
 *   AF004  every stats registration carries a description
 *   AF005  every header has an include guard
 *   AF006  no signed integer truncation of Tick values
 *   AF007  no bare assert() under src/ (use ASTRI_ASSERT / SIM_CHECK)
 *
 * v2 adds a lightweight tokenizer over the stripped text so the unit-
 * safety rules can reason about token sequences instead of raw lines:
 *
 *   AF008  raw-integer page/set/way/block/lpn parameters in public
 *          headers under src/ (use the strong types from
 *          sim/strong_types.hh)
 *   AF009  implicit Ticks<->Cycles mixing: a Ticks variable
 *          initialized from a bare cycle-count identifier (or vice
 *          versa) without going through ClockDomain
 *   AF010  pageNumber()/blockNumber() results stored into plain
 *          uint64_t / Addr, erasing the unit the call just attached
 *   AF011  strong-type .raw() escapes outside the allowlisted
 *          conversion headers (see kRawEscapeAllowlist)
 *   AF012  log2i()/alignDown()/alignUp() called with a literal that
 *          is not a power of two (rejected at runtime by SIM_CHECK_CE)
 *   AF013  direct cross-component reference inside the split DRAM
 *          cache: the frontside and backside controllers may only
 *          communicate through sim::BoundedChannel messages, so
 *          naming the opposite controller (or a structure it owns,
 *          or the flash device / system layers) from
 *          frontside_controller.* / backside_controller.* bypasses
 *          the channel contract. The DramCache facade is the one
 *          allowlisted composition point.
 *   AF014  concrete flash device type (FlashDevice / ZnsDevice / Ftl)
 *          named from src/core: core code talks to storage only
 *          through the abstract flash::Backend interface; the model
 *          is selected by flash::BackendKind and instantiated inside
 *          the flash fabric.
 *
 * v3 adds the nondeterminism rules backing the detshake determinism
 * contract (DESIGN.md §14): the simulation must produce byte-identical
 * stats under any same-tick event permutation, so no model may consult
 * an ordering accident:
 *
 *   AF015  range-for iteration over a std::unordered_* container in
 *          src/: hash-table iteration order is
 *          implementation-defined, so any model decision made inside
 *          such a loop depends on hashing accidents. Iterate a sorted
 *          copy, keep a side order, or annotate walks whose body is
 *          provably order-insensitive (pure audits / commutative
 *          accumulation).
 *   AF016  pointer-keyed associative container in src/: ordering (and
 *          unordered hashing) over raw addresses varies run to run
 *          with the allocator; key on a stable identity (id, page
 *          number) instead.
 *   AF017  mutable namespace-scope / static-storage state in src/:
 *          hidden globals leak simulation state across Systems and
 *          break SweepRunner's isolated-replica byte-identity. The
 *          reviewed owners (checks arming flag, tracer, uthread
 *          current pointer) are allowlisted in kStateOwners.
 *   AF018  sim::BoundedChannel constructed without a declared
 *          ChannelContract: every channel must state its minimum
 *          push-to-consume latency (the lookahead manifest) so the
 *          causality auditor can certify it.
 *
 * v4 adds cross-TU domain-ownership rules (DESIGN.md §16). A second
 * global pass builds a member/call access map from the class bodies in
 * src/ headers, assigns each known component class to its execution
 * domain ("fc" = frontside + cores + facade + fabric, "bc" = backside
 * shard), and flags state and call paths that escape the domain
 * partition — the exact couplings that force System to fuse every
 * domain into one exec group:
 *
 *   AF020  a component class holding a raw pointer/reference to a
 *          component owned by a different domain. The channel seam
 *          (sim::BoundedChannel members) and the DramCache facade
 *          (dram_cache.*, the allowlisted composition point) are
 *          exempt.
 *   AF021  a direct call of a method attributable to exactly one
 *          controller (FrontsideController / BacksideController)
 *          from outside that controller's own files and outside
 *          dram_cache.*'s allowlisted pump: such calls cross the
 *          FC<->BC domain boundary synchronously, bypassing the
 *          channels.
 *   AF022  mutable shared state reachable from two domains without an
 *          owning declaration: a non-component type held by value or
 *          reference from classes in more than one domain, where a
 *          mutable reference holder's domain differs from the value
 *          owner's (page tags, DRAM model, footprint masks — the
 *          measured worklist of the exec-group split).
 *
 * `--ownership-report=PREFIX` additionally writes the measured
 * domain-coupling graph (PREFIX.json + PREFIX.dot) enumerating every
 * synchronous FC<->BC edge: allowlisted facade calls, cross-domain
 * shared-state holders (including baselined ones), and channel-seam
 * members. DESIGN.md §16 commits this as the
 * exec-group-split worklist.
 *
 * Comments and string literals are stripped (newlines preserved)
 * before matching, so prose never trips a rule. Intentional
 * exceptions are annotated in a comment on the offending line:
 *
 *     // aflint-allow(AF001): host-time library by design
 *
 * or for a whole file, anywhere in it:
 *
 *     // aflint-allow-file(AF001): <reason>
 *
 * Reviewed long-lived exceptions live in tools/aflint/baseline.json
 * instead of inline annotations: findings keyed by (rule, file,
 * token) are suppressed when the baseline (auto-loaded from
 * <root>/tools/aflint/baseline.json, or --baseline=FILE) lists them.
 * --write-baseline regenerates the file from the current findings;
 * --check additionally fails on stale entries that no longer match
 * anything; --no-baseline disables suppression entirely.
 *
 * Exit status: 0 when clean, 1 when findings were reported, 2 on
 * usage or I/O errors. --format=json emits one JSON object per
 * finding (JSONL) for machine consumption in CI.
 */

#include <algorithm>
#include <cctype>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

namespace {

namespace fs = std::filesystem;

struct Finding {
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;
    /** Stable identity inside the file (a declared name, member, or
     *  method) — the baseline key, so entries survive line drift. */
    std::string token;

    Finding(std::string f, int l, std::string r, std::string m,
            std::string t = {})
        : file(std::move(f)), line(l), rule(std::move(r)),
          message(std::move(m)), token(std::move(t))
    {
    }
};

struct Options {
    std::string root = ".";
    std::vector<std::string> paths; ///< Scan roots relative to root.
    std::string sinceRef;           ///< Diff mode: scan changed files.
    std::string baselinePath;       ///< Override baseline location.
    std::string reportPrefix;       ///< --ownership-report=PREFIX.
    bool json = false;
    bool defaultExcludes = true;
    bool noBaseline = false;
    bool writeBaseline = false;
    bool checkBaseline = false; ///< Stale baseline entries fail.
};

/** One lint rule: a regex applied per line of the stripped source. */
struct LineRule {
    const char *id;
    const char *message;
    std::regex pattern;
    bool srcOnly; ///< Only enforced for files under src/.
};

bool
isSourceFile(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".cc" || ext == ".cpp" || ext == ".hh" ||
           ext == ".h" || ext == ".hpp";
}

bool
isHeader(const fs::path &p)
{
    const std::string ext = p.extension().string();
    return ext == ".hh" || ext == ".h" || ext == ".hpp";
}

/**
 * Blank out comments, string literals and char literals, preserving
 * newlines so findings keep their line numbers. Quote characters are
 * kept so argument-list scans still see the (emptied) literals.
 */
std::string
stripCommentsAndStrings(const std::string &in)
{
    std::string out;
    out.reserve(in.size());
    std::size_t i = 0;
    const std::size_t n = in.size();

    auto keepNewlines = [&out](const std::string &s, std::size_t from,
                               std::size_t to) {
        for (std::size_t k = from; k < to; ++k)
            out.push_back(s[k] == '\n' ? '\n' : ' ');
    };

    while (i < n) {
        const char c = in[i];
        if (c == '/' && i + 1 < n && in[i + 1] == '/') {
            const std::size_t end = in.find('\n', i);
            const std::size_t stop = end == std::string::npos ? n : end;
            keepNewlines(in, i, stop);
            i = stop;
        } else if (c == '/' && i + 1 < n && in[i + 1] == '*') {
            const std::size_t end = in.find("*/", i + 2);
            const std::size_t stop =
                end == std::string::npos ? n : end + 2;
            keepNewlines(in, i, stop);
            i = stop;
        } else if (c == '"' &&
                   (i == 0 ||
                    !(std::isalnum(static_cast<unsigned char>(
                          in[i - 1])) ||
                      in[i - 1] == '_') ||
                    in[i - 1] == 'R')) {
            // Raw string literal: R"delim( ... )delim".
            if (i > 0 && in[i - 1] == 'R') {
                std::size_t p = i + 1;
                std::string delim;
                while (p < n && in[p] != '(')
                    delim.push_back(in[p++]);
                const std::string closer = ")" + delim + "\"";
                const std::size_t end = in.find(closer, p);
                const std::size_t stop = end == std::string::npos
                                             ? n
                                             : end + closer.size();
                out.push_back('"');
                keepNewlines(in, i + 1, stop > i + 1 ? stop - 1 : i + 1);
                if (stop > i + 1)
                    out.push_back('"');
                i = stop;
                continue;
            }
            out.push_back('"');
            ++i;
            while (i < n && in[i] != '"') {
                if (in[i] == '\\' && i + 1 < n)
                    ++i;
                out.push_back(in[i] == '\n' ? '\n' : ' ');
                ++i;
            }
            if (i < n) {
                out.push_back('"');
                ++i;
            }
        } else if (c == '\'' &&
                   !(i > 0 &&
                     std::isalnum(static_cast<unsigned char>(
                         in[i - 1])) &&
                     i + 1 < n &&
                     std::isalnum(static_cast<unsigned char>(
                         in[i + 1])))) {
            // The guard keeps digit separators (2'500'000ull) from
            // opening a phantom char literal that would swallow
            // newlines and skew every finding's line number.
            out.push_back('\'');
            ++i;
            while (i < n && in[i] != '\'') {
                if (in[i] == '\\' && i + 1 < n)
                    ++i;
                out.push_back(' ');
                ++i;
            }
            if (i < n) {
                out.push_back('\'');
                ++i;
            }
        } else {
            out.push_back(c);
            ++i;
        }
    }
    return out;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream is(text);
    std::string line;
    while (std::getline(is, line))
        lines.push_back(line);
    return lines;
}

/**
 * Suppressions live in the raw (unstripped) text: same-line
 * aflint-allow(AFnnn), preceding-line aflint-allow-next-line(AFnnn),
 * and per-file aflint-allow-file(AFnnn).
 */
struct Suppressions {
    std::set<std::pair<int, std::string>> lines;
    std::set<std::string> wholeFile;

    bool
    allows(int line, const std::string &rule) const
    {
        return wholeFile.count(rule) != 0 ||
               lines.count({line, rule}) != 0;
    }
};

Suppressions
collectSuppressions(const std::vector<std::string> &raw_lines)
{
    static const std::regex allow_re(
        "aflint-allow(-file|-next-line)?\\((AF[0-9]{3})\\)");
    Suppressions sup;
    for (std::size_t i = 0; i < raw_lines.size(); ++i) {
        auto begin = std::sregex_iterator(raw_lines[i].begin(),
                                          raw_lines[i].end(), allow_re);
        for (auto it = begin; it != std::sregex_iterator(); ++it) {
            const std::string scope = (*it)[1].str();
            const std::string rule = (*it)[2].str();
            if (scope == "-file")
                sup.wholeFile.insert(rule);
            else if (scope == "-next-line")
                sup.lines.insert({static_cast<int>(i) + 2, rule});
            else
                sup.lines.insert({static_cast<int>(i) + 1, rule});
        }
    }
    return sup;
}

const std::vector<LineRule> &
lineRules()
{
    static const std::vector<LineRule> rules = {
        {"AF001",
         "wall-clock / libc randomness breaks determinism; use the "
         "event queue's tick clock and sim::Rng",
         std::regex("std::chrono::(system|steady|high_resolution)_"
                    "clock|\\bgettimeofday\\b|\\bclock_gettime\\b|"
                    "\\btime\\s*\\(|\\brand\\s*\\(|\\bsrand\\s*\\(|"
                    "\\brandom\\s*\\("),
         false},
        {"AF002",
         "raw new/delete; own memory with std::unique_ptr / "
         "containers",
         std::regex("\\bnew\\s+[A-Za-z_(:<]|\\bdelete\\s*(\\[\\s*\\]"
                    "\\s*)?[A-Za-z_(:*]"),
         false},
        {"AF003",
         "stdout write from library code; report through stats / "
         "ASTRI_WARN instead",
         std::regex("std::cout\\b|\\bprintf\\s*\\(|\\bputs\\s*\\("),
         true},
        {"AF006",
         "signed integer truncation of a Tick value; Ticks are "
         "uint64 picoseconds",
         std::regex("static_cast<(int|long|std::int32_t|std::int64_t)"
                    ">\\s*\\([^()]*([tT]ick|curTick\\(\\))"),
         false},
        {"AF007",
         "bare assert(); use ASTRI_ASSERT / SIM_CHECK so Release "
         "builds can arm it",
         std::regex("\\bassert\\s*\\(|#\\s*include\\s*<cassert>"),
         true},
    };
    return rules;
}

/**
 * AF004: every stats registration names what it counts. Finds
 * register{Counter,Uint,Average,Histogram}( call sites and counts
 * top-level arguments across lines: fewer than three means the
 * trailing description is missing.
 */
void
checkStatDescriptions(const std::string &stripped,
                      const std::string &file,
                      const Suppressions &sup,
                      std::vector<Finding> &out)
{
    static const std::regex call_re(
        "register(Counter|Uint|Average|Histogram)\\s*\\(");
    auto begin = std::sregex_iterator(stripped.begin(), stripped.end(),
                                      call_re);
    for (auto it = begin; it != std::sregex_iterator(); ++it) {
        const std::size_t open =
            static_cast<std::size_t>(it->position() + it->length()) - 1;
        int depth = 0;
        int args = 1;
        bool closed = false;
        for (std::size_t p = open; p < stripped.size(); ++p) {
            const char c = stripped[p];
            if (c == '(' || c == '[' || c == '{' || c == '<') {
                // '<' heuristically tracks template args; stray
                // comparisons never appear inside these call sites.
                ++depth;
            } else if (c == ')' || c == ']' || c == '}' || c == '>') {
                --depth;
                if (depth == 0 && c == ')') {
                    closed = true;
                    break;
                }
            } else if (c == ',' && depth == 1) {
                ++args;
            }
        }
        const int line = 1 + static_cast<int>(std::count(
                                 stripped.begin(),
                                 stripped.begin() +
                                     static_cast<long>(it->position()),
                                 '\n'));
        if (closed && args < 3 && !sup.allows(line, "AF004")) {
            out.push_back(
                {file, line, "AF004",
                 "stats registration is missing its description "
                 "argument"});
        }
    }
}

/** AF005: headers must open an include guard before any code. */
void
checkIncludeGuard(const std::string &stripped, const std::string &file,
                  const Suppressions &sup, std::vector<Finding> &out)
{
    static const std::regex guard_re("#\\s*ifndef\\s+[A-Za-z_]");
    static const std::regex pragma_re("#\\s*pragma\\s+once");
    if (std::regex_search(stripped, guard_re) ||
        std::regex_search(stripped, pragma_re))
        return;
    if (!sup.allows(1, "AF005"))
        out.push_back({file, 1, "AF005",
                       "header has no include guard"});
}


/**
 * Minimal token for the v2 semantic rules: identifiers, numeric
 * literals, and punctuation (with `::` kept as one token), each tagged
 * with its 1-based source line. Operates on the stripped text, so
 * comments and literals are already blank.
 */
struct Token {
    enum class Kind { Ident, Number, Punct };
    Kind kind;
    std::string text;
    int line;
};

std::vector<Token>
tokenize(const std::string &stripped)
{
    std::vector<Token> toks;
    int line = 1;
    const std::size_t n = stripped.size();
    std::size_t i = 0;
    auto isIdent = [](char c) {
        return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
    };
    while (i < n) {
        const char c = stripped[i];
        if (c == '\n') {
            ++line;
            ++i;
        } else if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
        } else if (std::isalpha(static_cast<unsigned char>(c)) ||
                   c == '_') {
            std::size_t j = i;
            while (j < n && isIdent(stripped[j]))
                ++j;
            toks.push_back({Token::Kind::Ident,
                            stripped.substr(i, j - i), line});
            i = j;
        } else if (std::isdigit(static_cast<unsigned char>(c))) {
            // Numeric literal, including hex/binary digits, digit
            // separators, and integer suffixes.
            std::size_t j = i;
            while (j < n && (isIdent(stripped[j]) ||
                             stripped[j] == '\''))
                ++j;
            toks.push_back({Token::Kind::Number,
                            stripped.substr(i, j - i), line});
            i = j;
        } else if (c == ':' && i + 1 < n && stripped[i + 1] == ':') {
            toks.push_back({Token::Kind::Punct, "::", line});
            i += 2;
        } else {
            toks.push_back({Token::Kind::Punct, std::string(1, c),
                            line});
            ++i;
        }
    }
    return toks;
}

bool
tokIs(const std::vector<Token> &t, std::size_t i, const char *text)
{
    return i < t.size() && t[i].text == text;
}

/** Parse an integer literal token (hex/dec, separators, suffixes). */
bool
literalValue(const std::string &text, std::uint64_t &out)
{
    std::string digits;
    for (const char c : text) {
        if (c != '\'')
            digits.push_back(c);
    }
    while (!digits.empty()) {
        const char back = static_cast<char>(
            std::tolower(static_cast<unsigned char>(digits.back())));
        if (back == 'u' || back == 'l')
            digits.pop_back();
        else
            break;
    }
    if (digits.empty())
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v =
        std::strtoull(digits.c_str(), &end, 0);
    if (errno != 0 || end == nullptr || *end != '\0')
        return false;
    out = v;
    return true;
}

/** Identifier names that denote page/set/way/block identities. */
bool
isIdentityParamName(const std::string &name)
{
    static const std::set<std::string> kNames = {
        "page", "pn",  "lpn",      "ppn",       "set",
        "way",  "bn",  "page_num", "block_num", "set_idx",
        "way_idx"};
    return kNames.count(name) != 0;
}

/** Raw integer type tokens AF008/AF010 refuse as unit carriers. */
bool
matchRawIntType(const std::vector<Token> &toks, std::size_t i,
                std::size_t &after, bool &is_addr)
{
    std::size_t j = i;
    if (tokIs(toks, j, "std") && tokIs(toks, j + 1, "::"))
        j += 2;
    else if (tokIs(toks, j, "mem") && tokIs(toks, j + 1, "::"))
        j += 2;
    if (tokIs(toks, j, "uint64_t") || tokIs(toks, j, "uint32_t")) {
        after = j + 1;
        is_addr = false;
        return true;
    }
    if (tokIs(toks, j, "Addr")) {
        after = j + 1;
        is_addr = true;
        return true;
    }
    return false;
}

/**
 * AF008: a public header declaring a parameter like
 * `std::uint64_t page` hands out a unit-free identifier; the strong
 * types exist so these cross component boundaries typed.
 */
void
checkRawIdentityParams(const std::vector<Token> &toks,
                       const std::string &file, const Suppressions &sup,
                       std::vector<Finding> &out)
{
    int depth = 0;
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind == Token::Kind::Punct) {
            if (t.text == "(")
                ++depth;
            else if (t.text == ")")
                --depth;
            continue;
        }
        if (depth <= 0 || t.kind != Token::Kind::Ident)
            continue;
        std::size_t after = 0;
        bool is_addr = false;
        if (!matchRawIntType(toks, i, after, is_addr))
            continue;
        if (after >= toks.size() ||
            toks[after].kind != Token::Kind::Ident ||
            !isIdentityParamName(toks[after].text))
            continue;
        const std::size_t next = after + 1;
        if (!(tokIs(toks, next, ",") || tokIs(toks, next, ")") ||
              tokIs(toks, next, "=")))
            continue;
        const int line = toks[after].line;
        if (!sup.allows(line, "AF008")) {
            out.push_back(
                {file, line, "AF008",
                 "raw integer parameter '" + toks[after].text +
                     "' names a page/set/way identity; use the "
                     "strong types (sim/strong_types.hh)"});
        }
    }
}

bool
identContains(const std::string &ident, const char *needle)
{
    std::string lower;
    for (const char c : ident)
        lower.push_back(static_cast<char>(
            std::tolower(static_cast<unsigned char>(c))));
    return lower.find(needle) != std::string::npos;
}

/**
 * AF009: `Ticks t = ... someCycles ...` (or Cycles from ticks) mixes
 * units without a ClockDomain conversion. Call expressions
 * (`clk.cycles(...)`, `ticksToCycles(...)`) are the sanctioned
 * converters and are skipped because the offending identifier must not
 * be immediately called or qualified.
 */
void
checkTickCycleMixing(const std::vector<Token> &toks,
                     const std::string &file, const Suppressions &sup,
                     std::vector<Finding> &out)
{
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        std::size_t j = i;
        if (tokIs(toks, j, "sim") && tokIs(toks, j + 1, "::"))
            j += 2;
        const bool ticks_decl = tokIs(toks, j, "Ticks");
        const bool cycles_decl = tokIs(toks, j, "Cycles");
        if (!ticks_decl && !cycles_decl)
            continue;
        if (j + 2 >= toks.size() ||
            toks[j + 1].kind != Token::Kind::Ident ||
            !tokIs(toks, j + 2, "="))
            continue;
        const char *needle = ticks_decl ? "cycle" : "tick";
        for (std::size_t k = j + 3; k < toks.size(); ++k) {
            const Token &t = toks[k];
            if (t.kind == Token::Kind::Punct &&
                (t.text == ";" || t.text == "{"))
                break;
            if (t.kind != Token::Kind::Ident ||
                !identContains(t.text, needle))
                continue;
            // A call or qualified name is a conversion, not a leak.
            if (tokIs(toks, k + 1, "(") ||
                (k > 0 && (toks[k - 1].text == "." ||
                           toks[k - 1].text == "::")))
                continue;
            if (!sup.allows(t.line, "AF009")) {
                out.push_back(
                    {file, t.line, "AF009",
                     std::string("implicit ") +
                         (ticks_decl ? "Cycles->Ticks"
                                     : "Ticks->Cycles") +
                         " mix via '" + t.text +
                         "'; convert through ClockDomain"});
            }
            break;
        }
        i = j + 2;
    }
}

/**
 * AF010: `std::uint64_t n = pageNumber(...)` throws away the unit the
 * call just attached; keep the PageNum/BlockNum.
 */
void
checkNumberErasure(const std::vector<Token> &toks,
                   const std::string &file, const Suppressions &sup,
                   std::vector<Finding> &out)
{
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        std::size_t after = 0;
        bool is_addr = false;
        if (toks[i].kind != Token::Kind::Ident ||
            !matchRawIntType(toks, i, after, is_addr))
            continue;
        if (after + 1 >= toks.size() ||
            toks[after].kind != Token::Kind::Ident ||
            !tokIs(toks, after + 1, "="))
            continue;
        std::size_t k = after + 2;
        if (tokIs(toks, k, "mem") && tokIs(toks, k + 1, "::"))
            k += 2;
        if (!(tokIs(toks, k, "pageNumber") ||
              tokIs(toks, k, "blockNumber")) ||
            !tokIs(toks, k + 1, "("))
            continue;
        const int line = toks[after].line;
        if (!sup.allows(line, "AF010")) {
            out.push_back({file, line, "AF010",
                           toks[k].text + "() result stored into a "
                           "plain integer; keep the strong " +
                               (toks[k].text == "pageNumber"
                                    ? "PageNum"
                                    : "BlockNum")});
        }
    }
}

/**
 * Headers that own the sanctioned strong->raw conversions; .raw()
 * inside them is the escape hatch working as designed.
 */
bool
rawEscapeAllowlisted(const std::string &rel)
{
    static const std::set<std::string> kRawEscapeAllowlist = {
        "src/sim/strong_types.hh", "src/sim/ticks.hh",
        "src/mem/address.hh",      "src/mem/address_map.hh",
        "src/flash/flash_types.hh"};
    return kRawEscapeAllowlist.count(rel) != 0;
}

/** AF011: .raw() escapes outside the conversion-owning headers. */
void
checkRawEscapes(const std::vector<Token> &toks, const std::string &file,
                const Suppressions &sup, std::vector<Finding> &out)
{
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!(tokIs(toks, i, ".") && tokIs(toks, i + 1, "raw") &&
              tokIs(toks, i + 2, "(") && tokIs(toks, i + 3, ")")))
            continue;
        const int line = toks[i + 1].line;
        if (!sup.allows(line, "AF011")) {
            out.push_back(
                {file, line, "AF011",
                 "strong-type .raw() escape outside the conversion "
                 "headers; convert via pageAddr()/blockAddr()/"
                 "ClockDomain or annotate the reviewed escape"});
        }
    }
}

/**
 * AF012: a literal argument to log2i()/alignDown()/alignUp() that is
 * not a power of two fails SIM_CHECK_CE; catch it before it compiles.
 */
void
checkPowerOfTwoLiterals(const std::vector<Token> &toks,
                        const std::string &file,
                        const Suppressions &sup,
                        std::vector<Finding> &out)
{
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        const bool is_log2 = tokIs(toks, i, "log2i");
        const bool is_align =
            tokIs(toks, i, "alignDown") || tokIs(toks, i, "alignUp");
        if ((!is_log2 && !is_align) || !tokIs(toks, i + 1, "("))
            continue;
        // Split top-level arguments.
        std::vector<std::vector<const Token *>> args(1);
        int depth = 1;
        std::size_t k = i + 2;
        for (; k < toks.size() && depth > 0; ++k) {
            const Token &t = toks[k];
            if (t.kind == Token::Kind::Punct) {
                if (t.text == "(")
                    ++depth;
                else if (t.text == ")") {
                    if (--depth == 0)
                        break;
                } else if (t.text == "," && depth == 1) {
                    args.emplace_back();
                    continue;
                }
            }
            args.back().push_back(&t);
        }
        const std::size_t arg_idx = is_log2 ? 0 : 1;
        if (arg_idx >= args.size() || args[arg_idx].size() != 1)
            continue;
        const Token &arg = *args[arg_idx][0];
        std::uint64_t v = 0;
        if (arg.kind != Token::Kind::Number ||
            !literalValue(arg.text, v))
            continue;
        if (v != 0 && (v & (v - 1)) == 0)
            continue;
        if (!sup.allows(arg.line, "AF012")) {
            out.push_back({file, arg.line, "AF012",
                           toks[i].text +
                               "() literal argument is not a power "
                               "of two and will fail SIM_CHECK_CE"});
        }
    }
}

/**
 * AF013: the FC/BC decomposition of the DRAM cache communicates ONLY
 * through bounded channels; a controller source file that names the
 * opposite controller, a structure the opposite side owns, or the
 * layers above/below (flash device, DramCache facade, System/SimCore)
 * has re-grown a direct call path around the channel layer. Matching
 * is by exact identifier token, so e.g. BcReply::Kind::EvictBufferHit
 * in the frontside does not trip the EvictBuffer ban. The DramCache
 * facade (dram_cache.*) is the allowlisted place where both
 * controllers and the device are visible at once.
 */
void
checkChannelBypass(const std::vector<Token> &toks,
                   const std::string &rel, const Suppressions &sup,
                   std::vector<Finding> &out)
{
    // Match the path segment rather than anchoring at the root so the
    // rule fires whether the controllers are linted as src/core/... or
    // through a fixture tree rooted higher up.
    const auto inCore = [&rel](const char *stem) {
        const auto pos = rel.find(stem);
        return pos != std::string::npos &&
               (pos == 0 || rel[pos - 1] == '/');
    };
    const bool fc = inCore("src/core/frontside_controller.");
    const bool bc = inCore("src/core/backside_controller.");
    if (!fc && !bc)
        return;
    // The MSR and evict buffer belong to the backside; the frontside
    // must not reach into them (or past them to the device).
    static const std::set<std::string> kFcForbidden = {
        "BacksideController", "MissStatusRow", "EvictBuffer",
        "FlashDevice",        "DramCache",     "System",
        "SimCore"};
    static const std::set<std::string> kBcForbidden = {
        "FrontsideController", "FlashDevice", "DramCache", "System",
        "SimCore"};
    const std::set<std::string> &forbidden =
        fc ? kFcForbidden : kBcForbidden;
    const char *side = fc ? "frontside" : "backside";
    for (const Token &t : toks) {
        if (t.kind != Token::Kind::Ident ||
            forbidden.count(t.text) == 0)
            continue;
        if (sup.allows(t.line, "AF013"))
            continue;
        out.push_back(
            {rel, t.line, "AF013",
             "direct reference to '" + t.text + "' from the " + side +
                 " controller bypasses the channel layer; FC and BC "
                 "talk only through sim::BoundedChannel messages "
                 "(composition lives in the DramCache facade)"});
    }
}

/**
 * AF014: src/core sees flash storage only through the abstract
 * flash::Backend interface. Naming a concrete device model
 * (FlashDevice, ZnsDevice, or the Ftl it wraps) from core re-couples
 * the cache/system layer to one back-end and defeats the pluggable
 * fabric: the model is chosen by flash::BackendKind and instantiated
 * inside FlashFabric (src/flash/fabric.cc). Matching is by exact
 * identifier token, so FlashFabricConfig or FlashCommand never trip
 * the rule.
 */
void
checkConcreteFlashTypes(const std::vector<Token> &toks,
                        const std::string &rel,
                        const Suppressions &sup,
                        std::vector<Finding> &out)
{
    // Path-segment match, like AF013, so fixture trees rooted above
    // src/core engage the rule too.
    const auto pos = rel.find("src/core/");
    if (pos == std::string::npos ||
        (pos != 0 && rel[pos - 1] != '/'))
        return;
    static const std::set<std::string> kConcrete = {
        "FlashDevice", "ZnsDevice", "Ftl"};
    for (const Token &t : toks) {
        if (t.kind != Token::Kind::Ident ||
            kConcrete.count(t.text) == 0)
            continue;
        if (sup.allows(t.line, "AF014"))
            continue;
        out.push_back(
            {rel, t.line, "AF014",
             "concrete flash device type '" + t.text +
                 "' named from src/core; core talks to storage only "
                 "through flash::Backend (select the model with "
                 "flash::BackendKind; the fabric instantiates it)"});
    }
}

/**
 * AF015 is resolved across the whole scan: container names are
 * declared in headers and iterated in implementation files, so the
 * declared-as-unordered name set is accumulated globally while files
 * are scanned and the recorded range-for sites are judged afterwards
 * (resolveUnorderedIteration). Over-approximate by name on purpose: a
 * name declared unordered anywhere flags its iteration everywhere,
 * and reviewed order-insensitive walks carry an annotation.
 */
struct UnorderedIterationState {
    std::set<std::string> declaredUnordered;
    struct Site {
        std::string file;
        int line;
        std::string name;
        bool suppressed;
    };
    std::vector<Site> sites;
};

UnorderedIterationState g_af015;

/** Skip to the token after a balanced <...> opening at @p open. */
std::size_t
skipAngles(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t k = open; k < toks.size(); ++k) {
        if (toks[k].text == "<") {
            ++depth;
        } else if (toks[k].text == ">") {
            if (--depth == 0)
                return k + 1;
        }
    }
    return toks.size();
}

/** AF015 collection: declared std::unordered_* names + range-fors. */
void
collectUnorderedIteration(const std::vector<Token> &toks,
                          const std::string &file,
                          const Suppressions &sup)
{
    for (std::size_t i = 0; i + 3 < toks.size(); ++i) {
        if (!(tokIs(toks, i, "std") && tokIs(toks, i + 1, "::")))
            continue;
        if (toks[i + 2].text.rfind("unordered_", 0) != 0 ||
            !tokIs(toks, i + 3, "<"))
            continue;
        const std::size_t after = skipAngles(toks, i + 3);
        // `std::unordered_map<K,V> name` declares; `...>::iterator`
        // or a bare type mention does not.
        if (after < toks.size() &&
            toks[after].kind == Token::Kind::Ident)
            g_af015.declaredUnordered.insert(toks[after].text);
    }

    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!tokIs(toks, i, "for") || !tokIs(toks, i + 1, "("))
            continue;
        int depth = 1;
        std::size_t colon = 0, close = 0;
        for (std::size_t k = i + 2; k < toks.size(); ++k) {
            const std::string &x = toks[k].text;
            if (x == "(") {
                ++depth;
            } else if (x == ")") {
                if (--depth == 0) {
                    close = k;
                    break;
                }
            } else if (x == ":" && depth == 1 && colon == 0) {
                colon = k;
            }
        }
        if (colon == 0 || close == 0)
            continue;
        // The last identifier of the range expression names the
        // container (`bc.pending` -> pending). A trailing call is a
        // factory, not a container name.
        std::string name;
        int line = 0;
        for (std::size_t k = colon + 1; k < close; ++k) {
            if (toks[k].kind == Token::Kind::Ident &&
                !tokIs(toks, k + 1, "(")) {
                name = toks[k].text;
                line = toks[k].line;
            }
        }
        if (!name.empty()) {
            g_af015.sites.push_back({file, line, name,
                                     sup.allows(line, "AF015")});
        }
    }
}

/** AF015 resolution, after every file contributed declarations. */
void
resolveUnorderedIteration(std::vector<Finding> &out)
{
    for (const UnorderedIterationState::Site &s : g_af015.sites) {
        if (s.suppressed ||
            g_af015.declaredUnordered.count(s.name) == 0)
            continue;
        out.push_back(
            {s.file, s.line, "AF015",
             "range-for over unordered container '" + s.name +
                 "': hash iteration order is nondeterministic; "
                 "iterate a sorted copy or keep a side order",
             s.name});
    }
}

/**
 * AF016: an associative container keyed on a raw pointer orders (or
 * hashes) by address, which varies run to run with the allocator.
 */
void
checkPointerKeyedContainers(const std::vector<Token> &toks,
                            const std::string &file,
                            const Suppressions &sup,
                            std::vector<Finding> &out)
{
    static const std::set<std::string> kAssoc = {
        "map",           "set",
        "multimap",      "multiset",
        "unordered_map", "unordered_set",
        "unordered_multimap", "unordered_multiset"};
    for (std::size_t i = 2; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != Token::Kind::Ident ||
            kAssoc.count(toks[i].text) == 0 ||
            !tokIs(toks, i + 1, "<"))
            continue;
        if (!(tokIs(toks, i - 2, "std") && tokIs(toks, i - 1, "::")))
            continue;
        // Scan the first template argument (the key type) only.
        int depth = 0;
        bool pointer_key = false;
        for (std::size_t k = i + 1; k < toks.size(); ++k) {
            const std::string &x = toks[k].text;
            if (x == "<") {
                ++depth;
            } else if (x == ">") {
                if (--depth == 0)
                    break;
            } else if (x == "," && depth == 1) {
                break;
            } else if (x == "*" && depth == 1) {
                pointer_key = true;
            }
        }
        const int line = toks[i].line;
        if (pointer_key && !sup.allows(line, "AF016")) {
            out.push_back(
                {file, line, "AF016",
                 "std::" + toks[i].text +
                     " keyed on a raw pointer orders by address, "
                     "which varies run to run; key on a stable "
                     "identity (id / page number) instead"});
        }
    }
}

/**
 * AF017: mutable static-storage state. Two passes over the
 * preprocessor-free token stream: (a) `static` / `thread_local`
 * declarations that are neither const-qualified nor functions, and
 * (b) keyword-less namespace-scope definitions with an initializer
 * (caught by a brace-scope classifier, so `int g_checks = 1;` at
 * namespace scope is found even without a storage keyword).
 */
void
checkMutableStaticState(const std::vector<Token> &all_toks,
                        const std::vector<std::string> &lines,
                        const std::string &file, const Suppressions &sup,
                        std::vector<Finding> &out)
{
    // Reviewed global-state owners: the checks arming flag, the
    // tracer's install point, and the uthread current pointer.
    static const std::set<std::string> kStateOwners = {
        "src/sim/invariant.cc", "src/sim/trace_events.cc",
        "src/uthread/uthread.cc"};
    if (kStateOwners.count(file) != 0)
        return;

    // Drop tokens on preprocessor-directive lines: macro definitions
    // are not runtime state.
    std::vector<char> pp(lines.size() + 1, 0);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        for (const char c : lines[i]) {
            if (std::isspace(static_cast<unsigned char>(c)))
                continue;
            pp[i + 1] = c == '#';
            break;
        }
    }
    std::vector<Token> toks;
    toks.reserve(all_toks.size());
    for (const Token &t : all_toks) {
        if (static_cast<std::size_t>(t.line) >= pp.size() ||
            !pp[static_cast<std::size_t>(t.line)])
            toks.push_back(t);
    }

    static const std::set<std::string> kConstQual = {
        "const", "constexpr", "constinit"};

    // Pass (a): static / thread_local declarations.
    for (std::size_t i = 0; i < toks.size(); ++i) {
        if (!(tokIs(toks, i, "static") ||
              tokIs(toks, i, "thread_local")))
            continue;
        bool const_qual = false, function = false;
        std::string name;
        int depth = 0;
        for (std::size_t k = i + 1; k < toks.size(); ++k) {
            const Token &x = toks[k];
            if (x.kind == Token::Kind::Punct) {
                if (x.text == "(") {
                    if (depth == 0 && k > 0 &&
                        toks[k - 1].kind == Token::Kind::Ident)
                        function = true;
                    ++depth;
                } else if (x.text == ")") {
                    --depth;
                } else if (depth == 0 &&
                           (x.text == ";" || x.text == "=" ||
                            x.text == "{")) {
                    break;
                }
            } else if (depth == 0 &&
                       kConstQual.count(x.text) != 0) {
                const_qual = true;
            } else if (depth == 0 &&
                       x.kind == Token::Kind::Ident) {
                // Last identifier before the terminator names the
                // declared variable (the baseline token).
                name = x.text;
            }
        }
        const int line = toks[i].line;
        if (!const_qual && !function && !sup.allows(line, "AF017")) {
            out.push_back(
                {file, line, "AF017",
                 std::string(toks[i].text) +
                     " mutable state: hidden static storage leaks "
                     "simulation state across Systems and breaks "
                     "SweepRunner replica isolation",
                 name});
        }
    }

    // Pass (b): namespace-scope definitions without a storage keyword.
    static const std::set<std::string> kStmtSkip = {
        "static",  "thread_local", "using",    "typedef",
        "template", "extern",      "operator", "friend",
        "namespace", "class",      "struct",   "union",
        "enum"};
    int paren = 0;
    int non_ns_scopes = 0;
    std::vector<char> scope_is_ns;
    std::size_t stmt = 0; ///< First token of the current statement.
    auto stmtFlags = [&](std::size_t from, std::size_t to,
                         bool &skip, bool &call, int &line) {
        skip = false;
        call = false;
        line = 0;
        int d = 0;
        for (std::size_t k = from; k < to; ++k) {
            const Token &x = toks[k];
            if (x.kind == Token::Kind::Ident) {
                if (kStmtSkip.count(x.text) != 0 ||
                    kConstQual.count(x.text) != 0)
                    skip = true;
                line = x.line;
            } else if (x.text == "(") {
                if (d == 0)
                    call = true;
                ++d;
            } else if (x.text == ")") {
                --d;
            }
        }
    };
    for (std::size_t i = 0; i < toks.size(); ++i) {
        const Token &t = toks[i];
        if (t.kind != Token::Kind::Punct) {
            continue;
        } else if (t.text == "(") {
            ++paren;
        } else if (t.text == ")") {
            --paren;
        } else if (t.text == "{" && paren == 0) {
            bool skip = false, call = false;
            int line = 0;
            stmtFlags(stmt, i, skip, call, line);
            // `T name{init};` at namespace scope: flag before the
            // brace opens an (ignored) inner scope.
            if (non_ns_scopes == 0 && !skip && !call && line != 0 &&
                i > stmt && toks[i - 1].kind == Token::Kind::Ident &&
                i - stmt >= 2 && !sup.allows(line, "AF017")) {
                out.push_back(
                    {file, line, "AF017",
                     "mutable namespace-scope state '" +
                         toks[i - 1].text +
                         "': hidden globals leak simulation state "
                         "across Systems",
                     toks[i - 1].text});
            }
            bool ns = false;
            for (std::size_t k = stmt; k < i; ++k) {
                if (tokIs(toks, k, "namespace"))
                    ns = true;
            }
            scope_is_ns.push_back(ns);
            if (!ns)
                ++non_ns_scopes;
            stmt = i + 1;
        } else if (t.text == "}" && paren == 0) {
            if (!scope_is_ns.empty()) {
                if (!scope_is_ns.back())
                    --non_ns_scopes;
                scope_is_ns.pop_back();
            }
            stmt = i + 1;
        } else if (t.text == ";" && paren == 0) {
            if (non_ns_scopes == 0) {
                // Namespace scope: a statement with a top-level `=`
                // and no call parens before it defines a mutable
                // variable.
                std::size_t eq = 0;
                int d = 0;
                for (std::size_t k = stmt; k < i && eq == 0; ++k) {
                    if (toks[k].text == "(")
                        ++d;
                    else if (toks[k].text == ")")
                        --d;
                    else if (toks[k].text == "=" && d == 0)
                        eq = k;
                }
                if (eq != 0) {
                    bool skip = false, call = false;
                    int line = 0;
                    stmtFlags(stmt, eq, skip, call, line);
                    if (!skip && !call && line != 0 &&
                        toks[eq - 1].kind == Token::Kind::Ident &&
                        !sup.allows(line, "AF017")) {
                        out.push_back(
                            {file, line, "AF017",
                             "mutable namespace-scope state '" +
                                 toks[eq - 1].text +
                                 "': hidden globals leak simulation "
                                 "state across Systems",
                             toks[eq - 1].text});
                    }
                }
            }
            stmt = i + 1;
        }
    }
}

/**
 * AF018: every sim::BoundedChannel construction must declare its
 * ChannelContract (the lookahead manifest): a two-argument
 * construction takes the default contract of zero minimum latency,
 * which certifies nothing and would stall a conservative parallel
 * engine. Matches direct `BoundedChannel<T>(...)` constructions and
 * `make_unique<...BoundedChannel<T>>(...)`.
 */
void
checkChannelContractDeclared(const std::vector<Token> &toks,
                             const std::string &file,
                             const Suppressions &sup,
                             std::vector<Finding> &out)
{
    for (std::size_t i = 0; i + 1 < toks.size(); ++i) {
        if (!tokIs(toks, i, "BoundedChannel") ||
            !tokIs(toks, i + 1, "<"))
            continue;
        std::size_t k = skipAngles(toks, i + 1);
        // Close any enclosing template (make_unique<...>) before the
        // call parens; a declaration or parameter never follows its
        // '>' with '('.
        while (tokIs(toks, k, ">"))
            ++k;
        if (!tokIs(toks, k, "("))
            continue;
        int depth = 0, commas = 0;
        bool any = false, closed = false;
        for (std::size_t p = k; p < toks.size(); ++p) {
            const std::string &x = toks[p].text;
            if (x == "(") {
                ++depth;
            } else if (x == ")") {
                if (--depth == 0) {
                    closed = true;
                    break;
                }
            } else if (x == "," && depth == 1) {
                ++commas;
            } else {
                any = true;
            }
        }
        const int nargs = any ? commas + 1 : 0;
        const int line = toks[i].line;
        if (closed && nargs >= 1 && nargs < 3 &&
            !sup.allows(line, "AF018")) {
            out.push_back(
                {file, line, "AF018",
                 "BoundedChannel constructed without a declared "
                 "ChannelContract; state the channel's minimum "
                 "push-to-consume latency (lookahead manifest, "
                 "DESIGN.md §14)"});
        }
    }
}

/*
 * ---------------------------------------------------------------------
 * Domain-ownership analysis (AF020..AF022, DESIGN.md §16).
 *
 * Resolved across the whole scan, like AF015: class bodies in src/
 * headers contribute members and method declarations, every src/ file
 * contributes call sites, and the rules are judged after the file
 * loop (resolveOwnership). The component→domain table
 * mirrors the runtime partition System builds: the frontside queue
 * owns the cores, the FC and the facade's value-owned shared
 * structures; each backside shard's queue owns one BC with its MSR,
 * evict buffer and flash-fabric slice (flash submit() runs in the
 * owning BC's event chain, never the frontside's).
 * ---------------------------------------------------------------------
 */

/** Execution domain of a known component class (nullptr otherwise). */
const char *
componentDomain(const std::string &cls)
{
    static const std::map<std::string, const char *> kTable = {
        {"FrontsideController", "fc"}, {"SimCore", "fc"},
        {"DramCache", "fc"},           {"FlashFabric", "bc"},
        {"BacksideController", "bc"},  {"MissStatusRow", "bc"},
        {"EvictBuffer", "bc"}};
    const auto it = kTable.find(cls);
    return it == kTable.end() ? nullptr : it->second;
}

/** True when @p rel's basename starts with @p stem. */
bool
baseStartsWith(const std::string &rel, const char *stem)
{
    const std::size_t slash = rel.find_last_of('/');
    const std::string base =
        slash == std::string::npos ? rel : rel.substr(slash + 1);
    return base.rfind(stem, 0) == 0;
}

/** Execution domain of a src/ file (nullptr when not attributable). */
const char *
fileDomain(const std::string &rel)
{
    if (baseStartsWith(rel, "frontside_controller.") ||
        baseStartsWith(rel, "sim_core.") ||
        baseStartsWith(rel, "system.") ||
        baseStartsWith(rel, "dram_cache."))
        return "fc";
    if (baseStartsWith(rel, "backside_controller.") ||
        baseStartsWith(rel, "miss_status_row.") ||
        baseStartsWith(rel, "evict_buffer.") ||
        rel.find("src/flash/") != std::string::npos)
        return "bc";
    return nullptr;
}

struct OwnershipState {
    /** A data member of a component class (from a src/ header). */
    struct Member {
        std::string cls, file, name, type;
        int line = 0;
        bool isRef = false;   ///< Top-level & or * declarator.
        bool isConst = false; ///< Any top-level const qualifier.
        bool isChannel = false; ///< Mentions sim::BoundedChannel.
        bool sup20 = false, sup22 = false;
    };
    std::vector<Member> members;

    /** Method name → every class declaring it; a method is
     *  attributable only when exactly one class declares it. */
    std::map<std::string, std::set<std::string>> methodOwners;

    /** A `.` / `->` call site anywhere under src/. */
    struct Call {
        std::string file, method;
        int line = 0;
        bool suppressed = false;
    };
    std::vector<Call> calls;

    // Report-side edges, filled during resolution (deliberately
    // including baselined findings: the report is the worklist).
    struct SyncEdge {
        std::string method, callee, file;
        int line = 0;
    };
    std::vector<SyncEdge> syncEdges; ///< Facade-allowlisted calls.
    struct SharedEdge {
        std::string type, holder, member, domain, owner, file;
        int line = 0;
    };
    std::vector<SharedEdge> sharedEdges; ///< Cross-domain mutable refs.
};

OwnershipState g_own;

/** Skip from a '{' at @p open to just past its matching '}'. */
std::size_t
skipBraces(const std::vector<Token> &toks, std::size_t open)
{
    int depth = 0;
    for (std::size_t k = open; k < toks.size(); ++k) {
        if (toks[k].text == "{") {
            ++depth;
        } else if (toks[k].text == "}") {
            if (--depth == 0)
                return k + 1;
        }
    }
    return toks.size();
}

/** Record the method declared by the statement ending at '(' @p paren. */
void
recordOwnershipMethod(const std::vector<Token> &toks, std::size_t stmt,
                      std::size_t paren, const std::string &cls)
{
    static const std::set<std::string> kNotMethods = {
        "if",     "for",    "while",  "switch", "return", "sizeof",
        "new",    "delete", "throw",  "catch",  "void",   "bool",
        "int",    "auto",   "static_assert",    "decltype",
        "alignof", "noexcept"};
    if (paren <= stmt || toks[paren - 1].kind != Token::Kind::Ident)
        return;
    const std::string &name = toks[paren - 1].text;
    if (name == cls || kNotMethods.count(name) != 0)
        return; // constructor / control keyword / builtin type
    if (paren >= 2 && toks[paren - 2].text == "~")
        return; // destructor
    g_own.methodOwners[name].insert(cls);
}

/** Record the member declared by the statement [stmt, end). */
void
recordOwnershipMember(const std::vector<Token> &toks, std::size_t stmt,
                      std::size_t end, const std::string &cls,
                      const std::string &rel, const Suppressions &sup)
{
    if (end <= stmt || componentDomain(cls) == nullptr)
        return;
    static const std::set<std::string> kNotMembers = {
        "using",   "typedef", "friend",    "template", "static",
        "enum",    "class",   "struct",    "union",    "public",
        "private", "protected", "operator", "virtual",  "return",
        "case",    "default", "goto",      "break",    "continue"};
    OwnershipState::Member m;
    m.cls = cls;
    m.file = rel;
    std::size_t name_end = end;
    int angle = 0;
    for (std::size_t k = stmt; k < end; ++k) {
        const Token &t = toks[k];
        if (t.kind == Token::Kind::Ident &&
            kNotMembers.count(t.text) != 0)
            return;
        if (t.text == "<") {
            ++angle;
        } else if (t.text == ">") {
            --angle;
        } else if (t.text == "=" && angle == 0) {
            name_end = k;
            break;
        } else if (t.text == "BoundedChannel") {
            m.isChannel = true;
        } else if (t.text == "const" && angle == 0) {
            m.isConst = true;
        } else if ((t.text == "&" || t.text == "*") && angle == 0) {
            m.isRef = true;
        }
    }
    // Last identifier names the member; the identifier before it (in
    // declaration order, possibly inside template angles) is the best
    // single-token guess at the held type.
    std::size_t name_at = 0;
    for (std::size_t k = stmt; k < name_end; ++k) {
        if (toks[k].kind == Token::Kind::Ident) {
            if (name_at != 0)
                m.type = toks[name_at].text;
            name_at = k;
        }
    }
    if (name_at == 0 || m.type.empty())
        return;
    m.name = toks[name_at].text;
    m.line = toks[name_at].line;
    m.sup20 = sup.allows(m.line, "AF020");
    m.sup22 = sup.allows(m.line, "AF022");
    g_own.members.push_back(std::move(m));
}

/** Walk one class body: member declarations + declared methods. */
void
parseOwnershipClassBody(const std::vector<Token> &toks,
                        std::size_t open, const std::string &cls,
                        const std::string &rel, const Suppressions &sup)
{
    int depth = 0;
    std::size_t close = toks.size();
    for (std::size_t k = open; k < toks.size(); ++k) {
        if (toks[k].text == "{") {
            ++depth;
        } else if (toks[k].text == "}") {
            if (--depth == 0) {
                close = k;
                break;
            }
        }
    }
    std::size_t stmt = open + 1;
    std::size_t k = open + 1;
    while (k < close) {
        const std::string &x = toks[k].text;
        if (x == "(") {
            recordOwnershipMethod(toks, stmt, k, cls);
            // Skip the parameter list, then the declaration tail:
            // a body / ctor-init braces are opaque, a ';' ends it.
            int d = 0;
            for (; k < close; ++k) {
                if (toks[k].text == "(") {
                    ++d;
                } else if (toks[k].text == ")" && --d == 0) {
                    ++k;
                    break;
                }
            }
            int pd = 0;
            while (k < close) {
                const std::string &y = toks[k].text;
                if (y == "(") {
                    ++pd;
                } else if (y == ")") {
                    --pd;
                } else if (y == "{" && pd == 0) {
                    k = skipBraces(toks, k);
                    break;
                } else if (y == ";" && pd == 0) {
                    ++k;
                    break;
                }
                ++k;
            }
            stmt = k;
        } else if (x == "{") {
            // Brace-initialised member or nested type body.
            recordOwnershipMember(toks, stmt, k, cls, rel, sup);
            k = skipBraces(toks, k);
            if (k < close && toks[k].text == ";")
                ++k;
            stmt = k;
        } else if (x == ";") {
            recordOwnershipMember(toks, stmt, k, cls, rel, sup);
            stmt = ++k;
        } else if (x == ":" && k == stmt + 1 &&
                   (tokIs(toks, stmt, "public") ||
                    tokIs(toks, stmt, "private") ||
                    tokIs(toks, stmt, "protected"))) {
            stmt = ++k;
        } else {
            ++k;
        }
    }
}

/** Phase-1 collection over src/ headers: class bodies. */
void
collectOwnershipClasses(const std::vector<Token> &toks,
                        const std::string &rel, const Suppressions &sup)
{
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        if (!tokIs(toks, i, "class") && !tokIs(toks, i, "struct"))
            continue;
        if (toks[i + 1].kind != Token::Kind::Ident)
            continue;
        // The body '{' must come before any ';' / '(' — otherwise a
        // forward declaration or an elaborated-type mention.
        std::size_t open = 0;
        for (std::size_t k = i + 2; k < toks.size(); ++k) {
            const std::string &x = toks[k].text;
            if (x == "{") {
                open = k;
                break;
            }
            if (x == ";" || x == "(" || x == ")" || x == "}")
                break;
        }
        if (open != 0) {
            parseOwnershipClassBody(toks, open, toks[i + 1].text, rel,
                                    sup);
        }
    }
}

/** Phase-1 collection over every src/ file: call sites. */
void
collectOwnershipUses(const std::vector<Token> &toks,
                     const std::string &rel, const Suppressions &sup)
{
    for (std::size_t i = 0; i + 2 < toks.size(); ++i) {
        // `.` is one token; `->` tokenizes as `-` `>`.
        std::size_t callee = 0;
        if (tokIs(toks, i, "."))
            callee = i + 1;
        else if (tokIs(toks, i, "-") && tokIs(toks, i + 1, ">"))
            callee = i + 2;
        if (callee != 0 && callee + 1 < toks.size() &&
            toks[callee].kind == Token::Kind::Ident &&
            tokIs(toks, callee + 1, "(")) {
            g_own.calls.push_back(
                {rel, toks[callee].text, toks[callee].line,
                 sup.allows(toks[callee].line, "AF021")});
        }
    }
}

/** AF020..AF022 resolution, after every file contributed. */
void
resolveOwnership(std::vector<Finding> &out)
{
    // AF020: a component holding a raw pointer/reference into a
    // component of the OTHER domain. Channels and the facade are the
    // sanctioned seams.
    for (const OwnershipState::Member &m : g_own.members) {
        const char *holder_dom = componentDomain(m.cls);
        const char *type_dom = componentDomain(m.type);
        if (holder_dom == nullptr || type_dom == nullptr)
            continue;
        if (!m.isRef || m.isConst || m.isChannel)
            continue;
        if (std::string(holder_dom) == type_dom)
            continue;
        if (baseStartsWith(m.file, "dram_cache."))
            continue; // the allowlisted composition point
        if (m.sup20)
            continue;
        out.push_back(
            {m.file, m.line, "AF020",
             "'" + m.cls + "::" + m.name + "' holds a raw " +
                 std::string(holder_dom) + "-side reference to " +
                 m.type + " (" + type_dom + "-owned); cross the "
                 "domain boundary through a BoundedChannel or the "
                 "DramCache facade (DESIGN.md §16)",
             m.name});
    }

    // AF021: direct calls of methods attributable to exactly one
    // controller, outside its own files and outside the facade.
    std::map<std::string, std::string> attributable;
    for (const auto &mo : g_own.methodOwners) {
        if (mo.second.size() != 1)
            continue;
        const std::string &cls = *mo.second.begin();
        if (cls == "FrontsideController" ||
            cls == "BacksideController")
            attributable[mo.first] = cls;
    }
    for (const OwnershipState::Call &c : g_own.calls) {
        const auto it = attributable.find(c.method);
        if (it == attributable.end())
            continue;
        const std::string &cls = it->second;
        const char *home = cls == "FrontsideController"
                               ? "frontside_controller."
                               : "backside_controller.";
        if (baseStartsWith(c.file, home))
            continue; // the controller's own files
        if (baseStartsWith(c.file, "dram_cache.")) {
            // The allowlisted pump: recorded as a measured sync edge
            // for the ownership report, never flagged.
            g_own.syncEdges.push_back({c.method, cls, c.file, c.line});
            continue;
        }
        const char *caller_dom = fileDomain(c.file);
        if (caller_dom != nullptr &&
            std::string(caller_dom) == componentDomain(cls))
            continue; // same-domain call, no boundary crossed
        if (c.suppressed)
            continue;
        out.push_back(
            {c.file, c.line, "AF021",
             "direct call of " + cls + "::" + c.method + " crosses "
             "the FC<->BC domain boundary synchronously; route it "
             "through the channel seam or the DramCache facade's "
             "allowlisted pump (DESIGN.md §16)",
             c.method});
    }

    // AF022: a non-component type held mutably from two domains.
    // The owning domain is the one holding it by value (the facade's
    // shared structures); mutable references from the other domain
    // are the measured exec-group-split worklist.
    std::map<std::string,
             std::vector<const OwnershipState::Member *>> shared;
    for (const OwnershipState::Member &m : g_own.members) {
        if (componentDomain(m.type) != nullptr || m.isChannel)
            continue;
        if (m.type.empty() ||
            !std::isupper(static_cast<unsigned char>(m.type[0])))
            continue; // class-ish types only
        shared[m.type].push_back(&m);
    }
    for (const auto &entry : shared) {
        std::set<std::string> domains;
        std::string owner;
        for (const OwnershipState::Member *m : entry.second) {
            domains.insert(componentDomain(m->cls));
            if (!m->isRef && owner.empty())
                owner = componentDomain(m->cls);
        }
        if (domains.size() < 2)
            continue;
        for (const OwnershipState::Member *m : entry.second) {
            if (!m->isRef || m->isConst)
                continue;
            const std::string dom = componentDomain(m->cls);
            if (!owner.empty() && dom == owner)
                continue;
            g_own.sharedEdges.push_back({entry.first, m->cls, m->name,
                                         dom, owner, m->file,
                                         m->line});
            if (m->sup22)
                continue;
            out.push_back(
                {m->file, m->line, "AF022",
                 "'" + m->cls + "::" + m->name + "' mutably shares " +
                     entry.first + " across domains (" +
                     (owner.empty() ? std::string("no value owner")
                                    : owner + "-owned by value") +
                     ", referenced from " + dom + ") without an "
                     "owning declaration — a synchronous coupling "
                     "the exec-group split must break (DESIGN.md "
                     "§16)",
                 m->name});
        }
    }
}

void
scanFile(const fs::path &path, const std::string &rel,
         std::vector<Finding> &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        out.push_back({rel, 0, "AF000", "unreadable file"});
        return;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string raw = buf.str();
    const std::string stripped = stripCommentsAndStrings(raw);
    const Suppressions sup = collectSuppressions(splitLines(raw));
    const std::vector<std::string> lines = splitLines(stripped);

    const bool under_src = rel.rfind("src/", 0) == 0;

    for (const LineRule &rule : lineRules()) {
        if (rule.srcOnly && !under_src)
            continue;
        for (std::size_t i = 0; i < lines.size(); ++i) {
            const int lineno = static_cast<int>(i) + 1;
            if (!std::regex_search(lines[i], rule.pattern))
                continue;
            if (sup.allows(lineno, rule.id))
                continue;
            out.push_back({rel, lineno, rule.id, rule.message});
        }
    }

    checkStatDescriptions(stripped, rel, sup, out);
    if (isHeader(path))
        checkIncludeGuard(stripped, rel, sup, out);

    const std::vector<Token> toks = tokenize(stripped);
    if (under_src && isHeader(path))
        checkRawIdentityParams(toks, rel, sup, out);
    checkTickCycleMixing(toks, rel, sup, out);
    checkNumberErasure(toks, rel, sup, out);
    if (under_src && !rawEscapeAllowlisted(rel))
        checkRawEscapes(toks, rel, sup, out);
    checkPowerOfTwoLiterals(toks, rel, sup, out);
    checkChannelBypass(toks, rel, sup, out);
    checkConcreteFlashTypes(toks, rel, sup, out);
    if (under_src) {
        collectUnorderedIteration(toks, rel, sup);
        collectOwnershipUses(toks, rel, sup);
        if (isHeader(path))
            collectOwnershipClasses(toks, rel, sup);
        checkPointerKeyedContainers(toks, rel, sup, out);
        checkMutableStaticState(toks, lines, rel, sup, out);
        checkChannelContractDeclared(toks, rel, sup, out);
    }
}

std::string
jsonEscape(const std::string &s)
{
    std::string out;
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out.push_back('\\');
        out.push_back(c);
    }
    return out;
}

/**
 * The measured domain-coupling graph (--ownership-report=PREFIX):
 * PREFIX.json + PREFIX.dot from the resolution-time edge lists. The
 * report deliberately includes baselined couplings — it is the
 * exec-group-split worklist (DESIGN.md §16), not the violation list.
 */
bool
writeOwnershipReport(const std::string &prefix)
{
    std::ofstream js(prefix + ".json");
    std::ofstream dot(prefix + ".dot");
    if (!js || !dot) {
        std::cerr << "aflint: cannot write ownership report to '"
                  << prefix << ".{json,dot}'\n";
        return false;
    }

    // Facade sync calls run FC-side when the callee is the BC
    // (service on the miss path) and BC-side when the callee is the
    // FC (install delivery under a channel drain).
    auto edgeDir = [](const std::string &callee) {
        return callee == "BacksideController" ? "fc->bc" : "bc->fc";
    };

    js << "{\n  \"domains\": [\"fc\", \"bc\"],\n";
    js << "  \"sync_calls\": [\n";
    for (std::size_t i = 0; i < g_own.syncEdges.size(); ++i) {
        const OwnershipState::SyncEdge &e = g_own.syncEdges[i];
        js << "    {\"method\": \"" << jsonEscape(e.callee)
           << "::" << jsonEscape(e.method) << "\", \"direction\": \""
           << edgeDir(e.callee) << "\", \"site\": \""
           << jsonEscape(e.file) << ":" << e.line << "\"}"
           << (i + 1 < g_own.syncEdges.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"shared_state\": [\n";
    for (std::size_t i = 0; i < g_own.sharedEdges.size(); ++i) {
        const OwnershipState::SharedEdge &e = g_own.sharedEdges[i];
        js << "    {\"type\": \"" << jsonEscape(e.type)
           << "\", \"holder\": \"" << jsonEscape(e.holder)
           << "::" << jsonEscape(e.member) << "\", \"holder_domain\": \""
           << jsonEscape(e.domain) << "\", \"owner_domain\": \""
           << jsonEscape(e.owner) << "\", \"site\": \""
           << jsonEscape(e.file) << ":" << e.line << "\"}"
           << (i + 1 < g_own.sharedEdges.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"channels\": [\n";
    std::vector<const OwnershipState::Member *> channels;
    for (const OwnershipState::Member &m : g_own.members) {
        if (m.isChannel)
            channels.push_back(&m);
    }
    for (std::size_t i = 0; i < channels.size(); ++i) {
        const OwnershipState::Member *m = channels[i];
        js << "    {\"holder\": \"" << jsonEscape(m->cls)
           << "::" << jsonEscape(m->name) << "\", \"domain\": \""
           << componentDomain(m->cls) << "\", \"site\": \""
           << jsonEscape(m->file) << ":" << m->line << "\"}"
           << (i + 1 < channels.size() ? "," : "") << "\n";
    }
    js << "  ],\n  \"traffic\": [\n";
    // Per-edge message classes, derived from the facade's channel
    // members: the DramCache names encode the direction (fcToBc,
    // bcToFcRsp, ...) and the parser's single-token type guess lands
    // on the template argument — the message class. The endpoint
    // count tallies every component-held channel member carrying the
    // same class (facade + both controllers), i.e. how many
    // declaration sites a message-format change has to visit.
    struct TrafficEdge {
        std::string message, edge, channel;
        int endpoints = 0;
    };
    std::vector<TrafficEdge> traffic;
    for (const OwnershipState::Member *m : channels) {
        if (m->cls != "DramCache")
            continue;
        const std::string &n = m->name;
        const std::string src = n.rfind("fc", 0) == 0 ? "fc" : "bc";
        // The flash leg stays inside the backside shard's domain
        // (the fabric slice is bc-owned).
        const std::string dst =
            n.find("ToFc") != std::string::npos ? "fc" : "bc";
        TrafficEdge e;
        e.message = m->type;
        e.edge = src + "->" + dst;
        e.channel = m->cls + "::" + n;
        for (const OwnershipState::Member *c : channels) {
            if (c->type == m->type)
                ++e.endpoints;
        }
        traffic.push_back(std::move(e));
    }
    for (std::size_t i = 0; i < traffic.size(); ++i) {
        const TrafficEdge &e = traffic[i];
        js << "    {\"message\": \"" << jsonEscape(e.message)
           << "\", \"edge\": \"" << e.edge << "\", \"channel\": \""
           << jsonEscape(e.channel) << "\", \"endpoints\": "
           << e.endpoints << "}"
           << (i + 1 < traffic.size() ? "," : "") << "\n";
    }
    js << "  ]\n}\n";

    dot << "digraph ownership {\n  rankdir=LR;\n"
        << "  fc [label=\"fc (frontside: cores + FC + facade + tags "
           "+ dram + footprint)\"];\n"
        << "  bc [label=\"bc (backside shard: BC + MSR + evict "
           "buffer + fabric slice)\"];\n";
    for (const TrafficEdge &e : traffic) {
        dot << "  " << (e.edge == "fc->bc" ? "fc -> bc" : "bc -> fc")
            << " [label=\"" << e.message << " via " << e.channel
            << " (" << e.endpoints << " endpoints)\"];\n";
    }
    for (const OwnershipState::SyncEdge &e : g_own.syncEdges) {
        const bool to_bc = e.callee == "BacksideController";
        dot << "  " << (to_bc ? "fc -> bc" : "bc -> fc")
            << " [label=\"" << e.callee << "::" << e.method << " ("
            << e.file << ":" << e.line << ")\"];\n";
    }
    for (const OwnershipState::SharedEdge &e : g_own.sharedEdges) {
        dot << "  " << e.domain << " -> "
            << (e.owner.empty() ? std::string("fc") : e.owner)
            << " [style=dashed, label=\"" << e.holder
            << "::" << e.member << " : " << e.type << "\"];\n";
    }
    dot << "}\n";
    return js.good() && dot.good();
}

/**
 * Baseline: reviewed long-lived findings keyed (rule, file, token) in
 * tools/aflint/baseline.json, replacing inline annotation noise for
 * couplings the roadmap already owns (the AF022 worklist, the
 * thread-local auditor attach points).
 */
struct BaselineEntry {
    std::string rule, file, token;
    int hits = 0;
};

bool
loadBaseline(const fs::path &path, std::vector<BaselineEntry> &out)
{
    std::ifstream in(path);
    if (!in)
        return false;
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string text = buf.str();
    static const std::regex obj("\\{[^{}]*\\}");
    static const std::regex kv(
        "\"(rule|file|token)\"\\s*:\\s*\"((?:\\\\.|[^\"\\\\])*)\"");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), obj);
         it != std::sregex_iterator(); ++it) {
        const std::string o = it->str();
        BaselineEntry e;
        for (auto k = std::sregex_iterator(o.begin(), o.end(), kv);
             k != std::sregex_iterator(); ++k) {
            std::string value = (*k)[2].str();
            std::string plain;
            for (std::size_t p = 0; p < value.size(); ++p) {
                if (value[p] == '\\' && p + 1 < value.size())
                    ++p;
                plain.push_back(value[p]);
            }
            const std::string key = (*k)[1].str();
            if (key == "rule")
                e.rule = plain;
            else if (key == "file")
                e.file = plain;
            else
                e.token = plain;
        }
        if (!e.rule.empty() && !e.file.empty())
            out.push_back(std::move(e));
    }
    return true;
}

bool
writeBaseline(const fs::path &path,
              const std::vector<Finding> &findings)
{
    std::set<std::string> seen;
    std::ofstream out(path);
    if (!out)
        return false;
    out << "{\n  \"entries\": [\n";
    std::string sep;
    for (const Finding &f : findings) {
        const std::string key = f.rule + "\n" + f.file + "\n" + f.token;
        if (!seen.insert(key).second)
            continue;
        out << sep << "    {\"rule\": \"" << jsonEscape(f.rule)
            << "\", \"file\": \"" << jsonEscape(f.file)
            << "\", \"token\": \"" << jsonEscape(f.token) << "\"}";
        sep = ",\n";
    }
    out << "\n  ]\n}\n";
    return out.good();
}

int
usage(const char *argv0)
{
    std::cerr
        << "usage: " << argv0
        << " [--root DIR] [--format=text|json] "
           "[--no-default-excludes] [baseline/report flags] "
           "[paths...]\n"
           "Scans src tools bench tests under DIR (default: .) "
           "unless explicit paths are given.\n"
           "--since REF scans only files changed since the git ref.\n"
           "Paths containing /fixtures/ are skipped unless "
           "--no-default-excludes is set.\n"
           "--baseline=FILE reads reviewed findings keyed "
           "(rule,file,token) [default: ROOT/tools/aflint/"
           "baseline.json]; --no-baseline disables it;\n"
           "--write-baseline regenerates the file from the current "
           "findings; --check fails on stale entries.\n"
           "--ownership-report=PREFIX writes the measured "
           "domain-coupling graph to PREFIX.json and PREFIX.dot "
           "(DESIGN.md §16).\n";
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--root" && i + 1 < argc) {
            opt.root = argv[++i];
        } else if (arg == "--format=json") {
            opt.json = true;
        } else if (arg == "--format=text") {
            opt.json = false;
        } else if (arg == "--since" && i + 1 < argc) {
            opt.sinceRef = argv[++i];
        } else if (arg == "--no-default-excludes") {
            opt.defaultExcludes = false;
        } else if (arg.rfind("--baseline=", 0) == 0) {
            opt.baselinePath = arg.substr(std::string("--baseline=").size());
        } else if (arg == "--no-baseline") {
            opt.noBaseline = true;
        } else if (arg == "--write-baseline") {
            opt.writeBaseline = true;
        } else if (arg == "--check") {
            opt.checkBaseline = true;
        } else if (arg.rfind("--ownership-report=", 0) == 0) {
            opt.reportPrefix =
                arg.substr(std::string("--ownership-report=").size());
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else if (!arg.empty() && arg[0] == '-') {
            return usage(argv[0]);
        } else {
            opt.paths.push_back(arg);
        }
    }
    if (opt.paths.empty())
        opt.paths = {"src", "tools", "bench", "tests"};

    const fs::path root(opt.root);
    if (!fs::is_directory(root)) {
        std::cerr << "aflint: no such directory: " << opt.root << "\n";
        return 2;
    }

    if (!opt.sinceRef.empty()) {
        // Diff mode: replace the scan roots with the source files git
        // reports as changed since the ref (pre-commit usage; the
        // full-tree scan stays the CI gate).
        // --name-status -M so renames are recognized as renames: a
        // pure rename (R100) carries no new code and is skipped
        // outright instead of re-reporting every pre-existing finding
        // under the moved path; a rename with edits (R0xx) scans the
        // new path like any modification.
        const std::string cmd = "git -C '" + opt.root +
                                "' diff --name-status -M '" +
                                opt.sinceRef + "' --";
        FILE *pipe = popen(cmd.c_str(), "r");
        if (pipe == nullptr) {
            std::cerr << "aflint: cannot run git diff\n";
            return 2;
        }
        std::string listing;
        char chunk[4096];
        std::size_t got = 0;
        while ((got = fread(chunk, 1, sizeof chunk, pipe)) > 0)
            listing.append(chunk, got);
        if (pclose(pipe) != 0) {
            std::cerr << "aflint: git diff against '" << opt.sinceRef
                      << "' failed\n";
            return 2;
        }
        opt.paths.clear();
        std::istringstream names(listing);
        std::string entry;
        while (std::getline(names, entry)) {
            // Each line is "STATUS\tpath" or "Rnnn\told\tnew".
            const std::size_t tab = entry.find('\t');
            if (tab == std::string::npos)
                continue;
            const std::string status = entry.substr(0, tab);
            std::string name = entry.substr(tab + 1);
            if (status.empty() || status[0] == 'D' ||
                status == "R100" || status == "C100")
                continue;
            if (status[0] == 'R' || status[0] == 'C') {
                const std::size_t tab2 = name.find('\t');
                if (tab2 == std::string::npos)
                    continue;
                name = name.substr(tab2 + 1);
            }
            if (name.empty() || !isSourceFile(fs::path(name)))
                continue;
            if (fs::is_regular_file(root / name))
                opt.paths.push_back(name);
        }
        if (opt.paths.empty()) {
            std::cout << "aflint: no changed source files since "
                      << opt.sinceRef << "\n";
            return 0;
        }
    }

    std::vector<Finding> findings;
    std::size_t files_scanned = 0;
    for (const std::string &sub : opt.paths) {
        const fs::path base = root / sub;
        if (!fs::exists(base)) {
            std::cerr << "aflint: no such path: " << base.string()
                      << "\n";
            return 2;
        }
        std::vector<fs::path> files;
        if (fs::is_regular_file(base)) {
            files.push_back(base);
        } else {
            for (const auto &entry :
                 fs::recursive_directory_iterator(base)) {
                if (entry.is_regular_file() &&
                    isSourceFile(entry.path()))
                    files.push_back(entry.path());
            }
        }
        std::sort(files.begin(), files.end());
        for (const fs::path &f : files) {
            const std::string rel =
                fs::relative(f, root).generic_string();
            if (opt.defaultExcludes &&
                rel.find("fixtures/") != std::string::npos)
                continue;
            ++files_scanned;
            scanFile(f, rel, findings);
        }
    }
    resolveUnorderedIteration(findings);
    resolveOwnership(findings);

    if (!opt.reportPrefix.empty() &&
        !writeOwnershipReport(opt.reportPrefix))
        return 2;

    const fs::path baseline_path =
        opt.baselinePath.empty()
            ? root / "tools" / "aflint" / "baseline.json"
            : fs::path(opt.baselinePath);
    if (opt.writeBaseline) {
        if (!writeBaseline(baseline_path, findings)) {
            std::cerr << "aflint: cannot write baseline '"
                      << baseline_path.string() << "'\n";
            return 2;
        }
        std::cout << "aflint: baseline written to "
                  << baseline_path.string() << " ("
                  << findings.size() << " finding(s))\n";
        return 0;
    }
    std::vector<BaselineEntry> baseline;
    if (!opt.noBaseline && fs::is_regular_file(baseline_path)) {
        if (!loadBaseline(baseline_path, baseline)) {
            std::cerr << "aflint: cannot read baseline '"
                      << baseline_path.string() << "'\n";
            return 2;
        }
    } else if (!opt.baselinePath.empty() && !opt.noBaseline) {
        std::cerr << "aflint: no such baseline: " << opt.baselinePath
                  << "\n";
        return 2;
    }
    std::vector<Finding> kept;
    kept.reserve(findings.size());
    for (Finding &f : findings) {
        bool matched = false;
        for (BaselineEntry &e : baseline) {
            if (e.rule == f.rule && e.file == f.file &&
                e.token == f.token) {
                ++e.hits;
                matched = true;
                break;
            }
        }
        if (!matched)
            kept.push_back(std::move(f));
    }
    int stale = 0;
    for (const BaselineEntry &e : baseline) {
        if (e.hits != 0)
            continue;
        ++stale;
        std::cerr << "aflint: stale baseline entry: " << e.rule << " "
                  << e.file << " '" << e.token << "'"
                  << (opt.checkBaseline ? "" : " (warning)") << "\n";
    }

    for (const Finding &f : kept) {
        if (opt.json) {
            std::cout << "{\"file\":\"" << jsonEscape(f.file)
                      << "\",\"line\":" << f.line << ",\"rule\":\""
                      << f.rule << "\",\"token\":\""
                      << jsonEscape(f.token) << "\",\"message\":\""
                      << jsonEscape(f.message) << "\"}\n";
        } else {
            std::cout << f.file << ":" << f.line << ": " << f.rule
                      << ": " << f.message << "\n";
        }
    }
    if (!opt.json) {
        std::cout << "aflint: " << files_scanned << " files, "
                  << kept.size() << " finding(s)";
        if (!baseline.empty()) {
            std::cout << ", " << findings.size() - kept.size()
                      << " baselined";
        }
        std::cout << "\n";
    }
    if (opt.checkBaseline && stale != 0)
        return 1;
    return kept.empty() ? 0 : 1;
}
