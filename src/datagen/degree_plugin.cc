#include "datagen/degree_plugin.h"

#include <algorithm>
#include <cmath>
#include <map>

#include "common/config.h"
#include "common/macros.h"
#include "common/string_util.h"

namespace gly::datagen {

// ------------------------------------------------------------------ Zeta

ZetaDegreePlugin::ZetaDegreePlugin(double alpha, uint64_t max_degree)
    : sampler_(alpha, max_degree), max_degree_(max_degree) {
  // Mean of the truncated zeta: sum k^(1-alpha) / sum k^-alpha.
  double num = 0.0;
  double den = 0.0;
  const uint64_t head = std::min<uint64_t>(max_degree_, 100000);
  for (uint64_t k = 1; k <= head; ++k) {
    double w = std::pow(static_cast<double>(k), -alpha);
    num += static_cast<double>(k) * w;
    den += w;
  }
  mean_ = den > 0.0 ? num / den : 1.0;
}

std::string ZetaDegreePlugin::ToString() const {
  return StringPrintf("zeta(alpha=%.3f, max=%llu)", sampler_.alpha(),
                      static_cast<unsigned long long>(max_degree_));
}

uint64_t ZetaDegreePlugin::Sample(Rng& rng) const { return sampler_.Sample(rng); }

// ------------------------------------------------------------- Geometric

GeometricDegreePlugin::GeometricDegreePlugin(double p)
    : p_(std::clamp(p, 1e-9, 1.0 - 1e-12)) {}

std::string GeometricDegreePlugin::ToString() const {
  return StringPrintf("geometric(p=%.4f)", p_);
}

uint64_t GeometricDegreePlugin::Sample(Rng& rng) const {
  return SampleGeometric(rng, p_);
}

// --------------------------------------------------------------- Weibull

WeibullDegreePlugin::WeibullDegreePlugin(double shape, double scale)
    : shape_(shape), scale_(scale) {}

std::string WeibullDegreePlugin::ToString() const {
  return StringPrintf("weibull(shape=%.3f, scale=%.3f)", shape_, scale_);
}

uint64_t WeibullDegreePlugin::Sample(Rng& rng) const {
  return SampleWeibullDegree(rng, shape_, scale_);
}

double WeibullDegreePlugin::MeanDegree() const {
  return scale_ * std::tgamma(1.0 + 1.0 / shape_) + 0.5;
}

// --------------------------------------------------------------- Poisson

PoissonDegreePlugin::PoissonDegreePlugin(double lambda)
    : lambda_(std::max(lambda, 1e-9)) {}

std::string PoissonDegreePlugin::ToString() const {
  return StringPrintf("poisson(lambda=%.3f)", lambda_);
}

uint64_t PoissonDegreePlugin::Sample(Rng& rng) const {
  uint64_t k;
  do {
    k = SamplePoisson(rng, lambda_);
  } while (k == 0);  // zero-truncated: degrees are >= 1
  return k;
}

double PoissonDegreePlugin::MeanDegree() const {
  return lambda_ / (1.0 - std::exp(-lambda_));
}

// ------------------------------------------------------------- Empirical

EmpiricalDegreePlugin::EmpiricalDegreePlugin(std::vector<uint64_t> degrees,
                                             AliasTable table, double mean)
    : degrees_(std::move(degrees)), table_(std::move(table)), mean_(mean) {}

Result<EmpiricalDegreePlugin> EmpiricalDegreePlugin::FromHistogram(
    const Histogram& observed) {
  std::vector<uint64_t> degrees;
  std::vector<double> weights;
  double num = 0.0;
  double den = 0.0;
  for (const auto& [k, count] : observed.Items()) {
    if (k == 0) continue;
    degrees.push_back(k);
    weights.push_back(static_cast<double>(count));
    num += static_cast<double>(k) * static_cast<double>(count);
    den += static_cast<double>(count);
  }
  if (degrees.empty()) {
    return Status::InvalidArgument(
        "empirical degree plugin needs a non-empty histogram with degrees >= 1");
  }
  return EmpiricalDegreePlugin(std::move(degrees), AliasTable(weights),
                               num / den);
}

std::string EmpiricalDegreePlugin::ToString() const {
  return StringPrintf("empirical(%zu distinct degrees, mean=%.2f)",
                      degrees_.size(), mean_);
}

uint64_t EmpiricalDegreePlugin::Sample(Rng& rng) const {
  return degrees_[table_.Sample(rng)];
}

// -------------------------------------------------------------- Facebook

FacebookDegreePlugin::FacebookDegreePlugin(double mean_degree)
    : mean_(std::max(mean_degree, 1.0)) {}

std::string FacebookDegreePlugin::ToString() const {
  return StringPrintf("facebook(mean=%.1f)", mean_);
}

uint64_t FacebookDegreePlugin::Sample(Rng& rng) const {
  // Mixture approximating the Facebook shape from Ugander et al.: a bulk of
  // modest-degree users (geometric body) plus a stretched-exponential tail,
  // truncated at ~5000 (Facebook's friend cap scaled to the mean).
  // Mixture mean is calibrated to `mean_`:
  //   0.85 * body_mean + 0.15 * tail_mean == mean_
  const double body_mean = mean_ * 0.6;
  const double tail_mean = mean_ * (1.0 - 0.85 * 0.6) / 0.15;
  uint64_t cap = static_cast<uint64_t>(mean_ * 170.0);  // ~5000 at mean 30
  uint64_t d;
  if (rng.NextDouble() < 0.85) {
    d = SampleGeometric(rng, 1.0 / body_mean);
  } else {
    // Weibull with shape < 1 gives the stretched-exponential tail.
    const double shape = 0.65;
    const double scale = tail_mean / std::tgamma(1.0 + 1.0 / shape);
    d = SampleWeibullDegree(rng, shape, scale);
  }
  return std::min<uint64_t>(std::max<uint64_t>(d, 1), cap);
}

// ---------------------------------------------------------------- factory

Result<std::unique_ptr<DegreePlugin>> MakeDegreePlugin(
    const std::string& spec) {
  auto head_and_args = Split(spec, ':');
  const std::string kind = ToLower(std::string(Trim(head_and_args[0])));
  Config args;
  if (head_and_args.size() > 1) {
    // Reuse the key=value parser: turn "a=1,b=2" into lines.
    std::string text;
    for (const auto& pair : Split(head_and_args[1], ',')) {
      text += pair;
      text += '\n';
    }
    GLY_ASSIGN_OR_RETURN(args, Config::Parse(text));
  }
  // The arguments each family takes; every one must parse (zeta's `max` as
  // an unsigned integer, the others as numbers), or the error names the spec
  // and the argument.
  static const std::map<std::string, std::vector<std::string>> kArgs = {
      {"zeta", {"alpha", "max"}}, {"geometric", {"p"}},
      {"weibull", {"shape", "scale"}}, {"poisson", {"lambda"}},
      {"facebook", {"mean"}}};
  const auto family = kArgs.find(kind);
  if (family == kArgs.end()) {
    return Status::InvalidArgument("unknown degree plugin: '" + kind + "'");
  }
  const std::string context = "degree spec '" + spec + "': ";
  for (const std::string& name : args.KeysWithPrefix("")) {
    if (std::count(family->second.begin(), family->second.end(), name) == 0) {
      return Status::InvalidArgument(context + "unknown argument '" + name + "'");
    }
    Status parsed = name == "max" ? args.GetUint(name).status()
                                  : args.GetDouble(name).status();
    GLY_RETURN_NOT_OK(parsed.WithPrefix(context + name));
  }
  if (kind == "zeta") {
    GLY_ASSIGN_OR_RETURN(double alpha, args.GetDouble("alpha"));
    const uint64_t max = args.Has("max") ? *args.GetUint("max") : 10000;
    if (alpha <= 1.0) {
      return Status::InvalidArgument("zeta plugin requires alpha > 1");
    }
    return {std::make_unique<ZetaDegreePlugin>(alpha, max)};
  }
  if (kind == "geometric") {
    GLY_ASSIGN_OR_RETURN(double p, args.GetDouble("p"));
    if (p <= 0.0 || p >= 1.0) {
      return Status::InvalidArgument("geometric plugin requires 0 < p < 1");
    }
    return {std::make_unique<GeometricDegreePlugin>(p)};
  }
  if (kind == "weibull") {
    GLY_ASSIGN_OR_RETURN(double shape, args.GetDouble("shape"));
    GLY_ASSIGN_OR_RETURN(double scale, args.GetDouble("scale"));
    if (shape <= 0.0 || scale <= 0.0) {
      return Status::InvalidArgument("weibull plugin requires positive params");
    }
    return {std::make_unique<WeibullDegreePlugin>(shape, scale)};
  }
  if (kind == "poisson") {
    GLY_ASSIGN_OR_RETURN(double lambda, args.GetDouble("lambda"));
    if (lambda <= 0.0) {
      return Status::InvalidArgument("poisson plugin requires lambda > 0");
    }
    return {std::make_unique<PoissonDegreePlugin>(lambda)};
  }
  const double mean = args.Has("mean") ? *args.GetDouble("mean") : 30.0;
  return {std::make_unique<FacebookDegreePlugin>(mean)};
}

}  // namespace gly::datagen
