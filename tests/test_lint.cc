/**
 * @file
 * Tests for the mprobe invariant linter (src/lint/).
 *
 * Each rule gets inline fixture snippets — one that must fire and a
 * clean/annotated twin that must not — plus the self-check that the
 * real tree (MPROBE_SOURCE_DIR) lints clean: the linter gates CI,
 * so a rule that fires on healthy code is itself a bug.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "lint/lint.hh"
#include "lint/tokenize.hh"

using namespace mprobe;

namespace
{

bool
hasRule(const std::vector<LintFinding> &findings,
        const std::string &rule)
{
    return std::any_of(findings.begin(), findings.end(),
                       [&](const LintFinding &f) {
                           return f.rule == rule;
                       });
}

} // namespace

// ----------------------------------------------------------------
// Tokenizer + annotations.

TEST(LintTokenize, StripsCommentsAndStrings)
{
    LintSource src = lintTokenize(
        "int a = 0; // steady_clock in a comment\n"
        "const char *s = \"rand()\";\n"
        "/* unordered_map in a block comment */\n");
    for (const LintToken &t : src.tokens) {
        EXPECT_NE(t.text, "steady_clock");
        EXPECT_NE(t.text, "rand");
        EXPECT_NE(t.text, "unordered_map");
    }
    // ...and the same names as code do tokenize.
    src = lintTokenize("auto x = rand();");
    bool saw = false;
    for (const LintToken &t : src.tokens)
        saw = saw || t.text == "rand";
    EXPECT_TRUE(saw);
}

TEST(LintTokenize, RawStringsAndEscapes)
{
    LintSource src = lintTokenize(
        "auto a = R\"(rand() time(nullptr))\";\n"
        "auto b = \"esc \\\" rand()\";\n"
        "char c = '\\'';\n"
        "int after = 1;\n");
    for (const LintToken &t : src.tokens)
        EXPECT_NE(t.text, "rand");
    // The token after all the literals still carries the right
    // line: literal handling must not desync line tracking.
    bool found = false;
    for (const LintToken &t : src.tokens)
        if (t.text == "after") {
            EXPECT_EQ(t.line, 4);
            found = true;
        }
    EXPECT_TRUE(found);
}

TEST(LintTokenize, AnnotationsNeedTagAndReason)
{
    LintSource src = lintTokenize(
        "int a; // lint: wallclock-ok(progress only)\n"
        "int b; // lint: wallclock-ok\n" // no reason: ignored
        "/* lint: fingerprint-exempt(execution detail) */\n"
        "int c;\n");
    ASSERT_EQ(src.annotations.size(), 2u);
    EXPECT_EQ(src.annotations[0].tag, "wallclock-ok");
    EXPECT_EQ(src.annotations[0].reason, "progress only");
    EXPECT_EQ(src.annotations[0].line, 1);
    EXPECT_TRUE(src.exempt("wallclock-ok", 1));
    // Line-above coverage: the block annotation on line 3 covers
    // the declaration on line 4.
    EXPECT_TRUE(src.exempt("fingerprint-exempt", 4));
    // Line-above coverage reaches exactly one line down, no
    // further (line 1's annotation covers lines 1 and 2 only).
    EXPECT_FALSE(src.exempt("wallclock-ok", 3));
    EXPECT_FALSE(src.exempt("nonexistent-tag", 1));
}

// ----------------------------------------------------------------
// Rule: nondeterminism.

TEST(LintNondeterminism, FlagsClocksAndRng)
{
    const char *path = "src/campaign/anything.cc";
    EXPECT_TRUE(hasRule(
        lintSourceText(
            path, "auto t = std::chrono::steady_clock::now();\n"),
        "nondeterminism"));
    EXPECT_TRUE(hasRule(
        lintSourceText(path, "int r = rand();\n"),
        "nondeterminism"));
    EXPECT_TRUE(hasRule(
        lintSourceText(path, "std::random_device rd;\n"),
        "nondeterminism"));
    EXPECT_TRUE(hasRule(
        lintSourceText(path, "time_t t = time(nullptr);\n"),
        "nondeterminism"));
    EXPECT_TRUE(hasRule(
        lintSourceText(path, "long r = std::rand();\n"),
        "nondeterminism"));
}

TEST(LintNondeterminism, AnnotationSilences)
{
    const char *path = "src/campaign/anything.cc";
    EXPECT_TRUE(lintSourceText(
                    path,
                    "// lint: wallclock-ok(ETA reporting only)\n"
                    "using clock = std::chrono::steady_clock;\n")
                    .empty());
    EXPECT_TRUE(
        lintSourceText(path,
                       "auto t0 = std::chrono::steady_clock::now();"
                       " // lint: wallclock-ok(heartbeat)\n")
            .empty());
}

TEST(LintNondeterminism, ProjectNamesAreNotLibcCalls)
{
    const char *path = "src/microprobe/anything.cc";
    // A project-scoped static factory that happens to be called
    // "random" is not libc random(); same for member access and
    // declarations.
    EXPECT_TRUE(lintSourceText(
                    path, "auto p = DepPass::random(1, 8);\n")
                    .empty());
    EXPECT_TRUE(
        lintSourceText(path, "auto v = obj.time();\n").empty());
    EXPECT_TRUE(
        lintSourceText(path, "auto v = obj->clock();\n").empty());
    EXPECT_TRUE(lintSourceText(
                    path, "static DepPass random(int l, int h);\n")
                    .empty());
    // ...but "return rand();" is still a call.
    EXPECT_TRUE(hasRule(lintSourceText(path, "return rand();\n"),
                        "nondeterminism"));
}

TEST(LintNondeterminism, BenchAndTestsOutOfScope)
{
    // bench_fig3 legitimately times the DSE wall clock; tests build
    // TTL fixtures. Neither feeds results.
    const char *snippet =
        "auto t = std::chrono::steady_clock::now();\n";
    EXPECT_TRUE(lintSourceText("bench/bench_fig3.cc", snippet)
                    .empty());
    EXPECT_TRUE(lintSourceText("tests/test_claims.cc", snippet)
                    .empty());
}

// ----------------------------------------------------------------
// Rule: unordered-iteration.

TEST(LintUnordered, FlagsInByteIdentityFiles)
{
    const char *snippet =
        "#include <unordered_map>\n"
        "std::unordered_map<std::string, int> m;\n";
    EXPECT_TRUE(hasRule(
        lintSourceText("src/campaign/export.cc", snippet),
        "unordered-iteration"));
    EXPECT_TRUE(hasRule(
        lintSourceText("src/sim/machine.cc", snippet),
        "unordered-iteration"));
    // Out of the byte-identity file set: allowed.
    EXPECT_TRUE(lintSourceText("src/microprobe/synth.cc", snippet)
                    .empty());
}

TEST(LintUnordered, AnnotationSilences)
{
    EXPECT_TRUE(
        lintSourceText(
            "src/campaign/cache.cc",
            "// lint: unordered-ok(lookup only, never iterated)\n"
            "std::unordered_set<uint64_t> seen;\n")
            .empty());
}

// ----------------------------------------------------------------
// Rule: obs-isolation.

TEST(LintObsIsolation, FlagsObsInByteIdentityFiles)
{
    const char *snippet =
        "#include \"obs/metrics.hh\"\n"
        "void f() { obs::counter(\"cache_hits\").add(); }\n";
    EXPECT_TRUE(hasRule(
        lintSourceText("src/campaign/cache.cc", snippet),
        "obs-isolation"));
    EXPECT_TRUE(hasRule(
        lintSourceText("src/campaign/export.cc", snippet),
        "obs-isolation"));
    EXPECT_TRUE(hasRule(
        lintSourceText("src/util/hash.hh", snippet),
        "obs-isolation"));
    // A span helper is as forbidden as a counter.
    EXPECT_TRUE(hasRule(
        lintSourceText("src/campaign/manifest.cc",
                       "void g() { obs::TraceSpan s(\"x\"); }\n"),
        "obs-isolation"));
}

TEST(LintObsIsolation, EngineFilesAndCleanCodePass)
{
    const char *snippet =
        "void f() {\n"
        "    static obs::Counter &c = obs::counter(\"claims_stolen\");\n"
        "    c.add();\n"
        "}\n";
    // Orchestration files instrument legitimately: out of scope.
    EXPECT_TRUE(
        lintSourceText("src/campaign/campaign.cc", snippet)
            .empty());
    EXPECT_TRUE(
        lintSourceText("src/service/service.cc", snippet).empty());
    // In-scope files that never touch obs:: stay clean, even with
    // an unrelated identifier spelled "obs".
    EXPECT_TRUE(lintSourceText("src/campaign/cache.cc",
                               "int obs = 3; int y = obs + 1;\n")
                    .empty());
    // No exemption annotation exists for this rule: an annotated
    // violation still fires.
    EXPECT_TRUE(hasRule(
        lintSourceText("src/campaign/spec.cc",
                       "// lint: wallclock-ok(nice try)\n"
                       "void h() { obs::traceInstant(\"x\"); }\n"),
        "obs-isolation"));
}

// ----------------------------------------------------------------
// Rule: obs-handle.

TEST(LintObsHandle, FlagsLookupsOutsideStaticHandles)
{
    const char *path = "src/campaign/campaign.cc";
    // A by-name lookup per call.
    EXPECT_TRUE(hasRule(
        lintSourceText(path, "void f() {\n"
                             "    obs::counter(\"cache_corrupt\").add(2);\n"
                             "}\n"),
        "obs-handle"));
    EXPECT_TRUE(hasRule(
        lintSourceText(path, "void f(double s) {\n"
                             "    obs::gauge(\"measure_seconds\").set(s);\n"
                             "}\n"),
        "obs-handle"));
    // A handle that is not static looks up on every call too.
    EXPECT_TRUE(hasRule(
        lintSourceText(path,
                       "void f() {\n"
                       "    obs::Counter &c = obs::counter(\"x\");\n"
                       "    c.add();\n"
                       "}\n"),
        "obs-handle"));
    // A namespace-scope static registers during static
    // initialization, in unspecified order across files.
    EXPECT_TRUE(hasRule(
        lintSourceText(path,
                       "namespace mprobe {\n"
                       "static obs::Histogram &h = obs::histogram(\n"
                       "    \"job_seconds\", {0.1, 1.0});\n"
                       "}\n"),
        "obs-handle"));
    // Tools and benches are in scope as well.
    EXPECT_TRUE(hasRule(
        lintSourceText("tools/mprobe_x.cc",
                       "int main() { obs::counter(\"runs\").add(); }\n"),
        "obs-handle"));
}

TEST(LintObsHandle, StaticHandlesTestsAndAnnotationsPass)
{
    EXPECT_TRUE(
        lintSourceText(
            "src/sim/machine.cc",
            "namespace mprobe {\n"
            "namespace {\n"
            "obs::Histogram &\n"
            "jobHistogram() {\n"
            "    static obs::Histogram &h = obs::histogram(\n"
            "        \"job_seconds\", {0.001, 1.0});\n"
            "    return h;\n"
            "}\n"
            "} // namespace\n"
            "void run() {\n"
            "    static obs::Counter &sims = obs::counter(\"sims\");\n"
            "    auto cb = [&]() {\n"
            "        static obs::Gauge &g = obs::gauge(\"level\");\n"
            "        g.set(1.0);\n"
            "    };\n"
            "    sims.add();\n"
            "}\n"
            "}\n")
            .empty());
    // Tests read instruments back by name.
    EXPECT_TRUE(lintSourceText("tests/test_obs.cc",
                               "void t() {\n"
                               "    obs::counter(\"cache_hits\").value();\n"
                               "}\n")
                    .empty());
    // A reviewed one-off lookup can say why.
    EXPECT_TRUE(lintSourceText(
                    "src/service/service.cc",
                    "void f() {\n"
                    "    // lint: obs-handle-ok(once per process)\n"
                    "    obs::counter(\"starts\").add();\n"
                    "}\n")
                    .empty());
}

// ----------------------------------------------------------------
// Rule: hot-path-alloc.

TEST(LintHotPath, FlagsHeapInSimulateCoreDecoded)
{
    const char *path = "src/sim/core.cc";
    EXPECT_TRUE(hasRule(
        lintSourceText(path,
                       "RunCounters simulateCoreDecoded(int n) {\n"
                       "    auto *p = new double[8];\n"
                       "    return {};\n"
                       "}\n"),
        "hot-path-alloc"));
    EXPECT_TRUE(hasRule(
        lintSourceText(path,
                       "RunCounters simulateCoreDecoded(int n) {\n"
                       "    std::vector<double> v;\n"
                       "    v.push_back(1.0);\n"
                       "    return {};\n"
                       "}\n"),
        "hot-path-alloc"));
}

TEST(LintHotPath, OutsideTheFunctionIsFine)
{
    // Allocation before/after the hot function is not the rule's
    // business; neither are annotated cold paths inside it.
    EXPECT_TRUE(lintSourceText(
                    "src/sim/core.cc",
                    "static double *table = new double[64];\n"
                    "RunCounters simulateCoreDecoded(int n) {\n"
                    "    double acc = 0;\n"
                    "    // lint: hotpath-alloc-ok(cold abort)\n"
                    "    if (n < 0) details.push_back(n);\n"
                    "    return {};\n"
                    "}\n"
                    "void after() { new int; }\n")
                    .empty());
}

TEST(LintHotPath, MissingFunctionIsAFinding)
{
    // core.cc without simulateCoreDecoded means the hot path moved
    // and the rule scope must move with it.
    EXPECT_TRUE(hasRule(
        lintSourceText("src/sim/core.cc", "int unrelated;\n"),
        "hot-path-alloc"));
}

// ----------------------------------------------------------------
// Rule: fingerprint-coverage.

namespace
{

const char *const kSpecStruct =
    "struct Spec {\n"
    "    uint64_t salt = 0;\n"
    "    std::vector<ChipConfig> configs = ChipConfig::all();\n"
    "    int threads = 0; // lint: fingerprint-exempt(exec detail)\n"
    "    bool sharded() const { return shardCount > 1; }\n"
    "    static int parse(const std::string &s);\n"
    "    double freqs[4] = {0, 0, 0, 0};\n"
    "};\n";

std::vector<LintFinding>
coverage(const std::string &fn_body)
{
    return lintFingerprintCoverage(
        "spec.hh", kSpecStruct, "Spec", "fp.cc",
        "uint64_t fingerprint(const Spec &s) {\n" + fn_body +
            "\n}\n",
        "fingerprint");
}

} // namespace

TEST(LintFingerprint, CleanWhenEveryFieldHashedOrExempt)
{
    auto findings = coverage("    return hash(s.salt, s.configs, "
                             "s.freqs);");
    EXPECT_TRUE(findings.empty());
}

TEST(LintFingerprint, DroppedFieldFails)
{
    // Exactly what must happen when someone deletes a hash line:
    // freqs is no longer referenced and carries no exemption.
    auto findings = coverage("    return hash(s.salt, s.configs);");
    ASSERT_EQ(findings.size(), 1u);
    EXPECT_EQ(findings[0].rule, "fingerprint-coverage");
    EXPECT_NE(findings[0].message.find("freqs"),
              std::string::npos);
    EXPECT_EQ(findings[0].file, "spec.hh");
}

TEST(LintFingerprint, MemberFunctionsAndStaticsIgnored)
{
    // sharded()/parse() never show up as fields: hashing "sharded"
    // is not demanded even when nothing references it.
    auto findings = coverage("    return hash(s.salt, s.configs, "
                             "s.freqs);");
    for (const LintFinding &f : findings) {
        EXPECT_EQ(f.message.find("sharded"), std::string::npos);
        EXPECT_EQ(f.message.find("parse"), std::string::npos);
    }
}

TEST(LintFingerprint, MissingStructOrFunctionIsAFinding)
{
    EXPECT_TRUE(hasRule(
        lintFingerprintCoverage("a.hh", "int x;\n", "Spec", "b.cc",
                                "void fingerprint() {}\n",
                                "fingerprint"),
        "fingerprint-coverage"));
    EXPECT_TRUE(hasRule(
        lintFingerprintCoverage("a.hh", kSpecStruct, "Spec",
                                "b.cc", "int unrelated;\n",
                                "fingerprint"),
        "fingerprint-coverage"));
}

// ----------------------------------------------------------------
// Self-check on the real machine sources: the coverage rule must
// see the GroundTruthParams Vmin-margin fields (the undervolting
// additions), so deleting their hash lines from fingerprint()
// cannot pass silently.

namespace
{

std::string
readRepoFile(const std::string &rel)
{
    std::ifstream f(std::string(MPROBE_SOURCE_DIR) + "/" + rel);
    EXPECT_TRUE(f.is_open()) << rel;
    std::ostringstream os;
    os << f.rdbuf();
    return os.str();
}

} // namespace

TEST(LintFingerprint, RealMachineVminFieldsAreCovered)
{
    std::string hh = readRepoFile("src/sim/machine.hh");
    std::string cc = readRepoFile("src/sim/machine.cc");
    // Clean today: every GroundTruthParams field (including
    // vminBase/vminPerGhz/vminPerIpc) is hashed or exempt.
    EXPECT_TRUE(lintFingerprintCoverage(
                    "src/sim/machine.hh", hh, "GroundTruthParams",
                    "src/sim/machine.cc", cc, "fingerprint")
                    .empty());
    // And the rule is actually watching the Vmin fields: a
    // fingerprint() with their references renamed away must fail
    // on exactly those names.
    std::string stripped = cc;
    for (const std::string field :
         {"vminBase", "vminPerGhz", "vminPerIpc"}) {
        size_t at;
        while ((at = stripped.find(field)) != std::string::npos)
            stripped.replace(at, field.size(), "gone");
        auto findings = lintFingerprintCoverage(
            "src/sim/machine.hh", hh, "GroundTruthParams",
            "src/sim/machine.cc", stripped, "fingerprint");
        EXPECT_TRUE(std::any_of(
            findings.begin(), findings.end(),
            [&](const LintFinding &f) {
                return f.rule == "fingerprint-coverage" &&
                       f.message.find(field) != std::string::npos;
            }))
            << field;
    }
}

// ----------------------------------------------------------------
// The real tree must lint clean: this is the same check CI runs
// via mprobe_lint, kept in-suite so a plain `ctest` catches a
// violation before the push.

TEST(LintTree, RepoIsClean)
{
    auto findings = lintTree(MPROBE_SOURCE_DIR);
    for (const LintFinding &f : findings)
        ADD_FAILURE() << f.format();
    EXPECT_TRUE(findings.empty());
}
