/**
 * @file
 * Invariant-linter rules and tree driver.
 */

#include "lint/lint.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>

#include "lint/tokenize.hh"
#include "util/logging.hh"

namespace mprobe
{

namespace fs = std::filesystem;

std::string
LintFinding::format() const
{
    return cat(file, ":", line, ": [", rule, "] ", message);
}

namespace
{

bool
pathStartsWith(const std::string &path, const std::string &prefix)
{
    return path.rfind(prefix, 0) == 0;
}

// ----------------------------------------------------------------
// Rule: nondeterminism — no wall clocks / ambient RNG in
// result-feeding code.

/** Identifiers forbidden wherever they appear (clock/RNG types). */
const char *const kForbiddenTypes[] = {
    "random_device",
    "system_clock",
    "steady_clock",
    "high_resolution_clock",
};

/** Identifiers forbidden when called (next token is "("). */
const char *const kForbiddenCalls[] = {
    "rand",          "srand",   "drand48", "lrand48",
    "mrand48",       "random",  "time",    "clock",
    "gettimeofday",  "clock_gettime", "timespec_get",
};

/**
 * Keywords that can directly precede a call expression. Any other
 * identifier in front of `name(` means a declaration
 * (`Type name(...)`) rather than a call.
 */
bool
exprKeyword(const std::string &s)
{
    return s == "return" || s == "throw" || s == "sizeof" ||
           s == "else" || s == "do" || s == "co_return" ||
           s == "co_await" || s == "co_yield" || s == "not" ||
           s == "and" || s == "or" || s == "xor";
}

/**
 * True when token @p i looks like a call of the libc/std function
 * spelled toks[i]: followed by "(", not a member access
 * (obj.time()), not qualified by a project scope
 * (DependencyDistancePass::random(...)), and not a declaration
 * (`static Pass random(int, int);`). `std::`-qualified and bare
 * calls both count.
 */
bool
freeCallContext(const std::vector<LintToken> &toks, size_t i)
{
    if (i + 1 >= toks.size() ||
        toks[i + 1].kind != LintToken::Kind::Punct ||
        toks[i + 1].text != "(")
        return false;
    if (i == 0)
        return true;
    const LintToken &prev = toks[i - 1];
    if (prev.kind == LintToken::Kind::Identifier)
        return exprKeyword(prev.text);
    if (prev.kind != LintToken::Kind::Punct)
        return true;
    if (prev.text == "." || prev.text == ">")
        return false; // member access (">" closes "->")
    if (prev.text == ":" && i >= 2 &&
        toks[i - 2].kind == LintToken::Kind::Punct &&
        toks[i - 2].text == ":") {
        // Qualified: only std:: (or global ::) stays forbidden.
        if (i >= 3 &&
            toks[i - 3].kind == LintToken::Kind::Identifier)
            return toks[i - 3].text == "std";
    }
    return true;
}

bool
nondeterminismScope(const std::string &path)
{
    // Library code and the CLI tools feed results; benches time
    // their own wall-clock cost and tests may construct clocks for
    // TTL fixtures, so both stay out of scope.
    return pathStartsWith(path, "src/") ||
           pathStartsWith(path, "tools/");
}

void
nondeterminismRule(const std::string &path, const LintSource &src,
                   std::vector<LintFinding> &out)
{
    if (!nondeterminismScope(path))
        return;
    const auto &toks = src.tokens;
    for (size_t i = 0; i < toks.size(); ++i) {
        const LintToken &t = toks[i];
        if (t.kind != LintToken::Kind::Identifier)
            continue;
        bool hit = false;
        for (const char *name : kForbiddenTypes)
            if (t.text == name)
                hit = true;
        if (!hit && freeCallContext(toks, i))
            for (const char *name : kForbiddenCalls)
                if (t.text == name)
                    hit = true;
        if (!hit)
            continue;
        if (src.exempt("wallclock-ok", t.line) ||
            src.exempt("nondeterminism-ok", t.line))
            continue;
        out.push_back(
            {path, t.line, "nondeterminism",
             cat("'", t.text,
                 "' is a nondeterminism source; results must "
                 "depend only on (program, config, salt). If this "
                 "is progress/ETA/heartbeat-only code, annotate "
                 "the line '// lint: wallclock-ok(<reason>)'")});
    }
}

// ----------------------------------------------------------------
// Rule: unordered-iteration — no hash-ordered containers in the
// byte-identity file set.

const char *const kUnorderedTypes[] = {
    "unordered_map",
    "unordered_set",
    "unordered_multimap",
    "unordered_multiset",
};

bool
unorderedScope(const std::string &path)
{
    // Everything whose output is byte-compared across runs, threads
    // and workers: exports, cache serialization, manifests, the
    // spec/campaign fingerprints, machine fingerprint, the hasher
    // itself, and the service's streamed status/exports.
    static const char *const files[] = {
        "src/campaign/export.",   "src/campaign/cache.",
        "src/campaign/manifest.", "src/campaign/spec.",
        "src/campaign/campaign.", "src/sim/machine.",
        "src/util/hash.",         "src/service/service.",
    };
    for (const char *f : files)
        if (pathStartsWith(path, f))
            return true;
    return false;
}

void
unorderedRule(const std::string &path, const LintSource &src,
              std::vector<LintFinding> &out)
{
    if (!unorderedScope(path))
        return;
    for (const LintToken &t : src.tokens) {
        if (t.kind != LintToken::Kind::Identifier)
            continue;
        bool hit = false;
        for (const char *name : kUnorderedTypes)
            if (t.text == name)
                hit = true;
        if (!hit || src.exempt("unordered-ok", t.line))
            continue;
        out.push_back(
            {path, t.line, "unordered-iteration",
             cat("'", t.text,
                 "' in byte-identity code: hash-table iteration "
                 "order leaks into exports/fingerprints and "
                 "breaks bit-identical merges. Use std::map/"
                 "std::set or sort explicitly; if the container "
                 "is provably never iterated for output, annotate "
                 "'// lint: unordered-ok(<reason>)'")});
    }
}

// ----------------------------------------------------------------
// Rule: obs-isolation — telemetry can never leak into results.

bool
obsIsolationScope(const std::string &path)
{
    // The byte-identity file set proper: serialization, exports,
    // manifests, specs and the hasher. Engine/orchestration files
    // (campaign.cc, claims, service, machine) MAY instrument with
    // obs:: — their obs calls are off the result path by the obs
    // API contract — but the files that *format result bytes* must
    // not even reference the namespace, so a trace or metric value
    // cannot possibly reach an export, cache entry or key.
    static const char *const files[] = {
        "src/campaign/export.", "src/campaign/cache.",
        "src/campaign/manifest.", "src/campaign/spec.",
        "src/util/hash.",
    };
    for (const char *f : files)
        if (pathStartsWith(path, f))
            return true;
    return false;
}

void
obsIsolationRule(const std::string &path, const LintSource &src,
                 std::vector<LintFinding> &out)
{
    if (!obsIsolationScope(path))
        return;
    const auto &toks = src.tokens;
    for (size_t i = 0; i + 2 < toks.size(); ++i) {
        if (toks[i].kind != LintToken::Kind::Identifier ||
            toks[i].text != "obs")
            continue;
        if (toks[i + 1].kind != LintToken::Kind::Punct ||
            toks[i + 1].text != ":" ||
            toks[i + 2].kind != LintToken::Kind::Punct ||
            toks[i + 2].text != ":")
            continue;
        // Deliberately no exemption tag: unlike wall clocks (which
        // have legitimate progress-only uses in these files),
        // there is no valid reason for serialization code to touch
        // the observability layer.
        out.push_back(
            {path, toks[i].line, "obs-isolation",
             "'obs::' in the byte-identity file set: "
             "serialization, exports and hashing must not "
             "reference the observability layer, so telemetry can "
             "never leak into results. Record the plain count "
             "here and sync it into the registry from the engine "
             "(see ResultCache::corrupt())"});
    }
}

// ----------------------------------------------------------------
// Rule: obs-handle — instruments register once.

bool
obsHandleScope(const std::string &path)
{
    // Code that runs campaigns; tests read instruments back by
    // name, which is what the registry lookup is for.
    return pathStartsWith(path, "src/") ||
           pathStartsWith(path, "tools/") ||
           pathStartsWith(path, "bench/");
}

bool
isPunct(const LintToken &t, const char *text)
{
    return t.kind == LintToken::Kind::Punct && t.text == text;
}

void
obsHandleRule(const std::string &path, const LintSource &src,
              std::vector<LintFinding> &out)
{
    if (!obsHandleScope(path))
        return;
    const auto &toks = src.tokens;
    // One entry per open brace: does it open a namespace? A lookup
    // is function-local when any enclosing brace is not one.
    std::vector<bool> braces;
    size_t locals = 0;
    for (size_t i = 0; i < toks.size(); ++i) {
        if (isPunct(toks[i], "{")) {
            bool ns = (i >= 1 && toks[i - 1].text == "namespace") ||
                      (i >= 2 && toks[i - 2].text == "namespace");
            braces.push_back(ns);
            locals += ns ? 0 : 1;
            continue;
        }
        if (isPunct(toks[i], "}")) {
            if (!braces.empty()) {
                locals -= braces.back() ? 0 : 1;
                braces.pop_back();
            }
            continue;
        }
        if (i + 4 >= toks.size() || toks[i].text != "obs" ||
            !isPunct(toks[i + 1], ":") || !isPunct(toks[i + 2], ":") ||
            !isPunct(toks[i + 4], "("))
            continue;
        const std::string &fn = toks[i + 3].text;
        if (fn != "counter" && fn != "gauge" && fn != "histogram")
            continue;
        // The statement must be `static <handle> = obs::fn(...)`.
        bool handle = false;
        if (locals > 0 && i >= 1 && isPunct(toks[i - 1], "=")) {
            size_t j = i - 1;
            while (j > 0 && !isPunct(toks[j - 1], ";") &&
                   !isPunct(toks[j - 1], "{") &&
                   !isPunct(toks[j - 1], "}"))
                --j;
            handle = toks[j].text == "static";
        }
        if (handle || src.exempt("obs-handle-ok", toks[i].line))
            continue;
        out.push_back(
            {path, toks[i].line, "obs-handle",
             cat("'obs::", fn,
                 "(...)' outside a function-local static "
                 "initializer: a registry lookup locks and may "
                 "allocate on every call. Register once "
                 "('static obs::Counter &c = obs::counter(...);') "
                 "and use the handle, or annotate "
                 "'// lint: obs-handle-ok(<reason>)'")});
    }
}

// ----------------------------------------------------------------
// Rule: hot-path-alloc — arena discipline inside
// simulateCoreDecoded.

/** Heap-allocating names forbidden in the hot path when called. */
const char *const kAllocCalls[] = {
    "malloc",       "calloc",  "realloc",       "strdup",
    "make_unique",  "make_shared", "push_back", "emplace_back",
    "emplace",      "resize",  "reserve",       "shrink_to_fit",
    "insert",       "append",  "to_string",
};

/**
 * Locate the brace-balanced body of function @p name: the token
 * index range (begin, end) covering everything between its braces.
 * Returns false when no definition is found.
 */
bool
findFunctionBody(const std::vector<LintToken> &toks,
                 const std::string &name, size_t &begin,
                 size_t &end)
{
    for (size_t i = 0; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != LintToken::Kind::Identifier ||
            toks[i].text != name)
            continue;
        if (toks[i + 1].kind != LintToken::Kind::Punct ||
            toks[i + 1].text != "(")
            continue;
        // Skip the balanced parameter list.
        size_t j = i + 1;
        int pdepth = 0;
        for (; j < toks.size(); ++j) {
            if (toks[j].kind != LintToken::Kind::Punct)
                continue;
            if (toks[j].text == "(")
                ++pdepth;
            else if (toks[j].text == ")" && --pdepth == 0)
                break;
        }
        if (j >= toks.size())
            return false;
        // Scan the post-parameter tokens (const, noexcept, trailing
        // return pieces) up to the body; a ';' or '=' means this
        // occurrence was a declaration or a call site.
        ++j;
        bool body = false;
        for (; j < toks.size(); ++j) {
            if (toks[j].kind == LintToken::Kind::Punct &&
                toks[j].text == "{") {
                body = true;
                break;
            }
            if (toks[j].kind == LintToken::Kind::Punct &&
                (toks[j].text == ";" || toks[j].text == "=" ||
                 toks[j].text == "(" || toks[j].text == "}"))
                break;
        }
        if (!body)
            continue;
        begin = j + 1;
        int bdepth = 1;
        for (++j; j < toks.size(); ++j) {
            if (toks[j].kind != LintToken::Kind::Punct)
                continue;
            if (toks[j].text == "{")
                ++bdepth;
            else if (toks[j].text == "}" && --bdepth == 0) {
                end = j;
                return true;
            }
        }
        return false;
    }
    return false;
}

void
hotPathRule(const std::string &path, const LintSource &src,
            std::vector<LintFinding> &out)
{
    if (path != "src/sim/core.cc")
        return;
    const std::string fn = "simulateCoreDecoded";
    size_t begin = 0, end = 0;
    if (!findFunctionBody(src.tokens, fn, begin, end)) {
        // A renamed/moved hot path must not silently disable its
        // allocation discipline: make the hole visible.
        out.push_back({path, 1, "hot-path-alloc",
                       cat("hot-path function '", fn,
                           "' not found; update the rule scope in "
                           "src/lint/lint.cc alongside the "
                           "rename")});
        return;
    }
    const auto &toks = src.tokens;
    for (size_t i = begin; i < end; ++i) {
        const LintToken &t = toks[i];
        if (t.kind != LintToken::Kind::Identifier)
            continue;
        bool hit = t.text == "new" || t.text == "delete";
        if (!hit && i + 1 < toks.size() &&
            toks[i + 1].kind == LintToken::Kind::Punct &&
            toks[i + 1].text == "(")
            for (const char *name : kAllocCalls)
                if (t.text == name)
                    hit = true;
        if (!hit || src.exempt("hotpath-alloc-ok", t.line))
            continue;
        out.push_back(
            {path, t.line, "hot-path-alloc",
             cat("'", t.text, "' inside ", fn,
                 ": the decoded hot path is arena-only (PR 7); "
                 "allocate through SimScratch/SimArena or hoist "
                 "the allocation out of the per-run path. "
                 "Cold abort paths can annotate "
                 "'// lint: hotpath-alloc-ok(<reason>)'")});
    }
}

// ----------------------------------------------------------------
// Rule: fingerprint-coverage.

struct MemberField
{
    std::string name;
    int line = 0;
};

/**
 * Extract the instance data members of struct/class @p name from a
 * tokenized header: depth-1 declaration statements, skipping member
 * functions (a '(' before any initializer), access specifiers,
 * using/typedef/friend declarations, static/constexpr members and
 * nested type definitions without declarators.
 */
bool
parseStructMembers(const std::vector<LintToken> &toks,
                   const std::string &name,
                   std::vector<MemberField> &out)
{
    size_t i = 0;
    size_t body = toks.size();
    for (; i + 1 < toks.size(); ++i) {
        if (toks[i].kind != LintToken::Kind::Identifier ||
            (toks[i].text != "struct" && toks[i].text != "class"))
            continue;
        if (toks[i + 1].kind != LintToken::Kind::Identifier ||
            toks[i + 1].text != name)
            continue;
        // The definition's '{' must come before any ';' (otherwise
        // this was a forward declaration).
        for (size_t j = i + 2; j < toks.size(); ++j) {
            if (toks[j].kind != LintToken::Kind::Punct)
                continue;
            if (toks[j].text == "{") {
                body = j + 1;
                break;
            }
            if (toks[j].text == ";")
                break;
        }
        if (body != toks.size())
            break;
    }
    if (body == toks.size())
        return false;

    std::vector<const LintToken *> stmt;
    auto classify = [&]() {
        if (stmt.empty())
            return;
        std::vector<const LintToken *> s = stmt;
        stmt.clear();
        const std::string &first = s[0]->text;
        if (first == "public" || first == "private" ||
            first == "protected" || first == "using" ||
            first == "typedef" || first == "friend" ||
            first == "template")
            return;
        bool skip = false;
        for (const LintToken *t : s)
            if (t->kind == LintToken::Kind::Identifier &&
                (t->text == "static" || t->text == "constexpr"))
                skip = true;
        if (skip)
            return;
        // Declarator prefix: everything before the initializer or
        // array/brace-init suffix.
        std::vector<const LintToken *> prefix;
        for (const LintToken *t : s) {
            if (t->kind == LintToken::Kind::Punct &&
                (t->text == "=" || t->text == "[" ||
                 t->text == "{"))
                break;
            prefix.push_back(t);
        }
        for (const LintToken *t : prefix)
            if (t->kind == LintToken::Kind::Punct &&
                t->text == "(")
                return; // member function / constructor
        // Nested type definition without a declarator ("struct
        // Entry { ... };"): nothing to cover.
        const LintToken *last = nullptr;
        size_t ids = 0;
        for (const LintToken *t : prefix)
            if (t->kind == LintToken::Kind::Identifier) {
                last = t;
                ++ids;
            }
        if (!last)
            return;
        if ((first == "struct" || first == "class" ||
             first == "enum" || first == "union") &&
            ids < 3)
            return;
        out.push_back({last->text, last->line});
    };

    int depth = 1;
    for (size_t j = body; j < toks.size() && depth > 0; ++j) {
        const LintToken &t = toks[j];
        if (t.kind == LintToken::Kind::Punct) {
            if (t.text == "{") {
                ++depth;
                continue;
            }
            if (t.text == "}") {
                if (--depth == 0)
                    break;
                if (depth == 1) {
                    // End of a member-function body or nested type:
                    // a following ';' or a non-identifier starts a
                    // fresh statement; an identifier is a
                    // declarator for the braced type ("} entries;")
                    // and keeps the statement open.
                    if (j + 1 < toks.size() &&
                        toks[j + 1].kind ==
                            LintToken::Kind::Identifier)
                        continue;
                    classify();
                }
                continue;
            }
            if (t.text == ";" && depth == 1) {
                classify();
                continue;
            }
        }
        if (depth == 1)
            stmt.push_back(&t);
    }
    return true;
}

} // namespace

std::vector<LintFinding>
lintFingerprintCoverage(const std::string &struct_file,
                        const std::string &struct_text,
                        const std::string &struct_name,
                        const std::string &fn_file,
                        const std::string &fn_text,
                        const std::string &fn_name)
{
    std::vector<LintFinding> out;
    LintSource sdecl = lintTokenize(struct_text);
    LintSource simpl = lintTokenize(fn_text);

    std::vector<MemberField> fields;
    if (!parseStructMembers(sdecl.tokens, struct_name, fields)) {
        out.push_back({struct_file, 1, "fingerprint-coverage",
                       cat("struct '", struct_name,
                           "' not found; update the coverage "
                           "pair in src/lint/lint.cc alongside "
                           "the rename")});
        return out;
    }
    size_t begin = 0, end = 0;
    if (!findFunctionBody(simpl.tokens, fn_name, begin, end)) {
        out.push_back({fn_file, 1, "fingerprint-coverage",
                       cat("fingerprint function '", fn_name,
                           "' not found; update the coverage "
                           "pair in src/lint/lint.cc alongside "
                           "the rename")});
        return out;
    }
    std::set<std::string> referenced;
    for (size_t i = begin; i < end; ++i)
        if (simpl.tokens[i].kind == LintToken::Kind::Identifier)
            referenced.insert(simpl.tokens[i].text);

    for (const MemberField &f : fields) {
        if (referenced.count(f.name))
            continue;
        if (sdecl.exempt("fingerprint-exempt", f.line))
            continue;
        out.push_back(
            {struct_file, f.line, "fingerprint-coverage",
             cat("field '", struct_name, "::", f.name,
                 "' is not referenced by ", fn_name,
                 "(): hash it there, or annotate the declaration "
                 "'// lint: fingerprint-exempt(<reason>)' if it "
                 "can never change results")});
    }
    return out;
}

std::vector<LintFinding>
lintSourceText(const std::string &path, const std::string &text)
{
    std::vector<LintFinding> out;
    LintSource src = lintTokenize(text);
    nondeterminismRule(path, src, out);
    unorderedRule(path, src, out);
    obsIsolationRule(path, src, out);
    obsHandleRule(path, src, out);
    hotPathRule(path, src, out);
    return out;
}

namespace
{

bool
readFile(const std::string &path, std::string &out)
{
    std::ifstream f(path, std::ios::binary);
    if (!f)
        return false;
    std::ostringstream os;
    os << f.rdbuf();
    out = os.str();
    return true;
}

/** One struct-vs-fingerprint pair lintTree() cross-references. */
struct CoveragePair
{
    const char *structFile;
    const char *structName;
    const char *fnFile;
    const char *fnName;
};

const CoveragePair kCoveragePairs[] = {
    {"src/sim/machine.hh", "GroundTruthParams",
     "src/sim/machine.cc", "fingerprint"},
    {"src/campaign/spec.hh", "CampaignSpec",
     "src/campaign/campaign.cc", "campaignFingerprint"},
};

} // namespace

std::vector<LintFinding>
lintTree(const std::string &root)
{
    std::vector<LintFinding> out;
    std::vector<std::string> files;
    for (const char *top : {"src", "bench", "tests", "tools"}) {
        fs::path dir = fs::path(root) / top;
        std::error_code ec;
        for (fs::recursive_directory_iterator
                 it(dir, ec),
             end;
             it != end; it.increment(ec)) {
            if (ec)
                break;
            if (!it->is_regular_file())
                continue;
            fs::path p = it->path();
            if (p.extension() != ".cc" && p.extension() != ".hh")
                continue;
            files.push_back(
                fs::relative(p, root).generic_string());
        }
    }
    std::sort(files.begin(), files.end());

    for (const std::string &rel : files) {
        std::string text;
        if (!readFile((fs::path(root) / rel).string(), text)) {
            out.push_back({rel, 0, "io", "cannot read file"});
            continue;
        }
        auto found = lintSourceText(rel, text);
        out.insert(out.end(), found.begin(), found.end());
    }

    for (const CoveragePair &cp : kCoveragePairs) {
        std::string sdecl, simpl;
        if (!readFile((fs::path(root) / cp.structFile).string(),
                      sdecl)) {
            out.push_back({cp.structFile, 0, "io",
                           "cannot read coverage-pair file"});
            continue;
        }
        if (!readFile((fs::path(root) / cp.fnFile).string(),
                      simpl)) {
            out.push_back({cp.fnFile, 0, "io",
                           "cannot read coverage-pair file"});
            continue;
        }
        auto found = lintFingerprintCoverage(
            cp.structFile, sdecl, cp.structName, cp.fnFile, simpl,
            cp.fnName);
        out.insert(out.end(), found.begin(), found.end());
    }

    std::sort(out.begin(), out.end(),
              [](const LintFinding &a, const LintFinding &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    return out;
}

} // namespace mprobe
