/**
 * @file
 * Job cost model calibration.
 */

#include "campaign/cost.hh"

#include <algorithm>

namespace mprobe
{

CostCalibration
calibrateJobCostModel(const std::vector<JobTiming> &timings)
{
    CostCalibration out;
    // x = deployed hardware threads x body size (what the simulator
    // actually scales with), y = measured wall seconds.
    std::vector<double> xs, ys;
    for (const auto &t : timings) {
        if (t.cached || t.seconds <= 0.0)
            continue;
        xs.push_back(static_cast<double>(t.config.threads()) *
                     static_cast<double>(t.bodySize));
        ys.push_back(t.seconds);
    }
    out.used = xs.size();
    if (xs.size() < 2)
        return out;

    double xm = 0.0, ym = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
        xm += xs[i];
        ym += ys[i];
    }
    xm /= static_cast<double>(xs.size());
    ym /= static_cast<double>(ys.size());
    double sxx = 0.0, sxy = 0.0, syy = 0.0;
    for (size_t i = 0; i < xs.size(); ++i) {
        sxx += (xs[i] - xm) * (xs[i] - xm);
        sxy += (xs[i] - xm) * (ys[i] - ym);
        syy += (ys[i] - ym) * (ys[i] - ym);
    }
    // All jobs the same size (sxx == 0) or wall time shrinking with
    // work (slope <= 0, pure noise): no usable fit.
    if (sxx <= 0.0)
        return out;
    double slope = sxy / sxx;
    if (slope <= 0.0)
        return out;
    double intercept = ym - slope * xm;

    out.ok = true;
    out.perSlotThreadSeconds = slope;
    out.perJobSeconds = intercept;
    out.r2 = syy > 0.0 ? (sxy * sxy) / (sxx * syy) : 1.0;
    out.fitted.perSlotThread = 1.0;
    // A negative intercept (tiny jobs dominated by noise) would
    // make small jobs "free"; clamp to the meaningful range.
    out.fitted.perJob = std::max(0.0, intercept / slope);
    return out;
}

bool
perJobWithinDefault(const JobCostModel &fitted)
{
    const JobCostModel shipped;
    return fitted.perJob >= 0.5 * shipped.perJob &&
           fitted.perJob <= 2.0 * shipped.perJob;
}

} // namespace mprobe
