/**
 * @file
 * Campaign spec parsing.
 */

#include "campaign/spec.hh"

#include <fstream>
#include <sstream>

#include "util/logging.hh"
#include "util/str.hh"

namespace mprobe
{

std::string
CampaignSpec::contentSummary() const
{
    std::ostringstream os;
    os << "campaign: ";
    bool any = false;
    auto sep = [&]() { return any ? " + " : (any = true, ""); };
    if (suiteEnabled) {
        os << sep();
        if (categories.empty()) {
            os << "full Table-2 suite";
        } else {
            os << "suite[";
            for (size_t i = 0; i < categories.size(); ++i)
                os << (i ? "," : "")
                   << benchCategoryName(categories[i]);
            os << "]";
        }
    }
    if (specProxies)
        os << sep() << "SPEC proxies";
    if (daxpy)
        os << sep() << "DAXPY";
    if (extremes)
        os << sep() << "extremes";
    // Measurement-only specs (benches, the model pipeline) select
    // no generated source; their workloads arrive via measure().
    if (!any)
        os << "adhoc measurement";
    os << " x " << configs.size() << " configs";
    if (!freqs.empty())
        os << " x " << freqs.size()
           << (freqs.size() == 1 ? " freq" : " freqs");
    if (!vdds.empty())
        os << " x " << vdds.size()
           << (vdds.size() == 1 ? " vdd" : " vdds");
    return os.str();
}

std::string
CampaignSpec::summary() const
{
    std::ostringstream os;
    os << contentSummary() << ", ";
    if (threads == 0)
        os << "auto threads";
    else
        os << threads << (threads == 1 ? " thread" : " threads");
    if (!cacheDir.empty())
        os << ", cache " << cacheDir;
    if (serve)
        os << ", serve (claim TTL " << claimTtlSeconds << "s)";
    return os.str();
}

std::vector<ChipConfig>
parseConfigList(const std::string &s, const std::string &context)
{
    if (toLower(trim(s)) == "all")
        return ChipConfig::all();
    std::vector<ChipConfig> out;
    for (const auto &c : split(s, ',')) {
        auto parts = split(trim(c), '-');
        if (parts.size() != 2)
            fatal(cat("bad config '", trim(c),
                      "' (want cores-smt) in ", context));
        out.push_back(
            {static_cast<int>(parseInt(parts[0], context)),
             static_cast<int>(parseInt(parts[1], context))});
    }
    if (out.empty())
        fatal(cat("empty config list in ", context));
    return out;
}

std::vector<double>
parseFreqList(const std::string &s, const std::string &context)
{
    std::vector<double> out;
    for (const auto &f : split(s, ',')) {
        double ghz = parseDouble(trim(f), context);
        if (ghz <= 0.0)
            fatal(cat("frequency must be > 0 GHz, got '", trim(f),
                      "' in ", context));
        for (double seen : out)
            if (seen == ghz)
                fatal(cat("duplicate frequency ", trim(f), " in ",
                          context));
        out.push_back(ghz);
    }
    if (out.empty())
        fatal(cat("empty frequency list in ", context));
    return out;
}

std::vector<double>
parseVddList(const std::string &s, const std::string &context)
{
    std::vector<double> out;
    for (const auto &v : split(s, ',')) {
        double volts = parseDouble(trim(v), context);
        if (volts <= 0.0)
            fatal(cat("voltage must be > 0 V, got '", trim(v),
                      "' in ", context));
        for (double seen : out)
            if (seen == volts)
                fatal(cat("duplicate voltage ", trim(v), " in ",
                          context));
        out.push_back(volts);
    }
    if (out.empty())
        fatal(cat("empty voltage list in ", context));
    return out;
}

BenchCategory
parseBenchCategory(const std::string &s, const std::string &context)
{
    std::string t = toLower(trim(s));
    if (t == "simpleint" || t == "simple_integer")
        return BenchCategory::SimpleInteger;
    if (t == "complexint" || t == "complex_integer")
        return BenchCategory::ComplexInteger;
    if (t == "integer")
        return BenchCategory::Integer;
    if (t == "floatvector" || t == "float_vector" || t == "fpvector")
        return BenchCategory::FloatVector;
    if (t == "unitmix" || t == "unit_mix")
        return BenchCategory::UnitMix;
    if (t == "memory" || t == "memory_group")
        return BenchCategory::MemoryGroup;
    if (t == "random")
        return BenchCategory::Random;
    fatal(cat("unknown suite category '", trim(s), "' in ",
              context));
}

CampaignSpec
parseCampaignSpecText(const std::string &text,
                      const std::string &origin)
{
    CampaignSpec spec;
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    bool saw_source = false;

    while (std::getline(in, line)) {
        ++lineno;
        std::string context = cat(origin, ":", lineno);
        std::string s = trim(line);
        if (s.empty() || s[0] == '#')
            continue;
        // Split on the first '=' only: values may contain '='
        // (e.g. cache_dir paths).
        auto eq = s.find('=');
        if (eq == std::string::npos || eq == 0)
            fatal(cat("expected 'key = value', got '", s, "' in ",
                      context));
        std::string key = toLower(trim(s.substr(0, eq)));
        std::string val = trim(s.substr(eq + 1));

        if (key == "categories") {
            saw_source = true;
            spec.suiteEnabled = false;
            spec.categories.clear();
            for (const auto &c : split(val, ',')) {
                std::string t = toLower(trim(c));
                if (t == "none")
                    continue;
                spec.suiteEnabled = true;
                if (t == "all") {
                    spec.categories.clear();
                    break;
                }
                spec.categories.push_back(
                    parseBenchCategory(t, context));
            }
        } else if (key == "spec_proxies") {
            saw_source = true;
            spec.specProxies = parseInt(val, context) != 0;
        } else if (key == "daxpy") {
            saw_source = true;
            spec.daxpy = parseInt(val, context) != 0;
        } else if (key == "extremes") {
            saw_source = true;
            spec.extremes = parseInt(val, context) != 0;
        } else if (key == "configs") {
            spec.configs = parseConfigList(val, context);
        } else if (key == "freqs") {
            spec.freqs = parseFreqList(val, context);
        } else if (key == "vdds") {
            spec.vdds = parseVddList(val, context);
        } else if (key == "threads") {
            spec.threads =
                static_cast<int>(parseInt(val, context));
            if (spec.threads < 0)
                fatal(cat("threads must be >= 0 (0 = auto) in ",
                          context));
        } else if (key == "cache_dir") {
            spec.cacheDir = val;
        } else if (key == "salt") {
            spec.salt =
                static_cast<uint64_t>(parseInt(val, context));
        } else if (key == "bootstrap") {
            spec.bootstrap = parseInt(val, context) != 0;
        } else if (key == "progress_seconds") {
            spec.progressSeconds = parseDouble(val, context);
            if (spec.progressSeconds < 0)
                fatal(cat("progress_seconds must be >= 0 "
                          "(0 = disabled) in ",
                          context));
        } else if (key == "serve") {
            spec.serve = parseInt(val, context) != 0;
        } else if (key == "claim_ttl_seconds") {
            spec.claimTtlSeconds = parseDouble(val, context);
            if (spec.claimTtlSeconds <= 0)
                fatal(cat("claim_ttl_seconds must be > 0 in ",
                          context));
        } else if (key == "seed") {
            spec.suite.seed =
                static_cast<uint64_t>(parseInt(val, context));
        } else if (key == "body_size") {
            spec.suite.bodySize =
                static_cast<size_t>(parseInt(val, context));
        } else if (key == "per_memory_group") {
            spec.suite.perMemoryGroup =
                static_cast<int>(parseInt(val, context));
        } else if (key == "memory_count") {
            spec.suite.memoryCount =
                static_cast<int>(parseInt(val, context));
        } else if (key == "random_count") {
            spec.suite.randomCount =
                static_cast<int>(parseInt(val, context));
        } else if (key == "ipc_search_budget") {
            spec.suite.ipcSearchBudget =
                static_cast<int>(parseInt(val, context));
        } else if (key == "ga_population") {
            spec.suite.gaPopulation =
                static_cast<int>(parseInt(val, context));
        } else if (key == "ga_generations") {
            spec.suite.gaGenerations =
                static_cast<int>(parseInt(val, context));
        } else if (key == "extend_unit_mix") {
            spec.suite.extendUnitMix = parseInt(val, context) != 0;
        } else {
            fatal(cat("unknown campaign key '", key, "' in ",
                      context));
        }
    }

    if (saw_source && !spec.suiteEnabled && !spec.specProxies &&
        !spec.daxpy && !spec.extremes)
        fatal(cat(origin, ": campaign spec selects no workloads"));

    // spec.categories reaches the suite generator via the Campaign
    // constructor (the single owner of that sync).
    return spec;
}

CampaignSpec
loadCampaignSpec(const std::string &path)
{
    std::ifstream f(path);
    if (!f)
        fatal(cat("cannot open campaign spec '", path, "'"));
    std::ostringstream os;
    os << f.rdbuf();
    return parseCampaignSpecText(os.str(), path);
}

} // namespace mprobe
