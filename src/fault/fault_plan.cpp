#include "fault/fault_plan.hpp"

#include <string_view>
#include <utility>

namespace dike::fault {

namespace {

constexpr auto kWindowFields = [](auto& w, auto&& field) {
  field("startTick", w.startTick);
  field("endTick", w.endTick);
};

constexpr auto kSampleFields = [](auto& s, auto&& field) {
  field("dropProbability", s.dropProbability);
  field("corruptProbability", s.corruptProbability);
  field("corruptScaleMin", s.corruptScaleMin);
  field("corruptScaleMax", s.corruptScaleMax);
  field("stuckAtZeroProbability", s.stuckAtZeroProbability);
  field("stuckQuanta", s.stuckQuanta);
  field("saturateMissRatioProbability", s.saturateMissRatioProbability);
};

constexpr auto kActuationFields = [](auto& a, auto&& field) {
  field("swapFailProbability", a.swapFailProbability);
  field("migrationFailProbability", a.migrationFailProbability);
};

constexpr auto kCoreFields = [](auto& c, auto&& field) {
  field("freqDipProbability", c.freqDipProbability);
  field("freqDipFactor", c.freqDipFactor);
  field("dipQuanta", c.dipQuanta);
};

constexpr auto kChurnFields = [](auto& c, auto&& field) {
  field("arrivals", c.arrivals);
  field("threadsPerArrival", c.threadsPerArrival);
  field("arrivalScale", c.arrivalScale);
};

void requireProbability(const util::JsonReader& r, double p,
                        std::string_view key) {
  r.require(p >= 0.0 && p <= 1.0, key, "must be in [0, 1]");
}

void decodeWindow(util::JsonReader& r, FaultWindow& out) {
  r.readFields(out, kWindowFields);
  r.require(out.startTick >= 0, "startTick", "must be >= 0");
  r.require(out.endTick >= 0, "endTick", "must be >= 0");
  r.require(out.endTick == 0 || out.endTick > out.startTick, "endTick",
            "must be 0 (open) or > startTick");
}

void decodeSamples(util::JsonReader& r, SampleFaults& out) {
  r.readFields(out, kSampleFields);
  requireProbability(r, out.dropProbability, "dropProbability");
  requireProbability(r, out.corruptProbability, "corruptProbability");
  requireProbability(r, out.stuckAtZeroProbability, "stuckAtZeroProbability");
  requireProbability(r, out.saturateMissRatioProbability,
                     "saturateMissRatioProbability");
  r.require(out.corruptScaleMin > 0.0, "corruptScaleMin", "must be > 0");
  r.require(out.corruptScaleMax >= out.corruptScaleMin, "corruptScaleMax",
            "must be >= corruptScaleMin");
  r.require(out.stuckQuanta >= 1, "stuckQuanta", "must be >= 1");
}

void decodeActuation(util::JsonReader& r, ActuationFaults& out) {
  r.readFields(out, kActuationFields);
  requireProbability(r, out.swapFailProbability, "swapFailProbability");
  requireProbability(r, out.migrationFailProbability,
                     "migrationFailProbability");
}

void decodeCores(util::JsonReader& r, CoreFaults& out) {
  r.readFields(out, kCoreFields);
  requireProbability(r, out.freqDipProbability, "freqDipProbability");
  r.require(out.freqDipFactor > 0.0 && out.freqDipFactor <= 1.0,
            "freqDipFactor", "must be in (0, 1]");
  r.require(out.dipQuanta >= 1, "dipQuanta", "must be >= 1");
}

void decodeChurn(util::JsonReader& r, ChurnFaults& out) {
  r.readFields(out, kChurnFields);
  r.require(out.arrivals >= 0, "arrivals", "must be >= 0");
  r.require(out.arrivals == 0 || out.threadsPerArrival >= 1,
            "threadsPerArrival", "must be >= 1");
  r.require(out.arrivals == 0 || out.arrivalScale > 0.0, "arrivalScale",
            "must be > 0");
}

}  // namespace

bool FaultPlan::enabled() const noexcept {
  return samples.dropProbability > 0.0 || samples.corruptProbability > 0.0 ||
         samples.stuckAtZeroProbability > 0.0 ||
         samples.saturateMissRatioProbability > 0.0 ||
         actuation.swapFailProbability > 0.0 ||
         actuation.migrationFailProbability > 0.0 ||
         cores.freqDipProbability > 0.0 || churn.arrivals > 0;
}

FaultPlan parseFaultPlan(const util::JsonValue& document) {
  util::JsonReader r{document, "faults"};
  FaultPlan plan;
  r.read("seed", plan.seed);
  r.readObject("window",
               [&plan](util::JsonReader& w) { decodeWindow(w, plan.window); });
  r.readObject("samples", [&plan](util::JsonReader& s) {
    decodeSamples(s, plan.samples);
  });
  r.readObject("actuation", [&plan](util::JsonReader& a) {
    decodeActuation(a, plan.actuation);
  });
  r.readObject("cores",
               [&plan](util::JsonReader& c) { decodeCores(c, plan.cores); });
  r.readObject("churn",
               [&plan](util::JsonReader& c) { decodeChurn(c, plan.churn); });
  r.finish();
  return plan;
}

util::JsonValue toJson(const FaultPlan& plan) {
  util::JsonObject doc;
  doc.emplace("seed", static_cast<double>(plan.seed));
  doc.emplace("window", util::encodeFields(plan.window, kWindowFields));
  doc.emplace("samples", util::encodeFields(plan.samples, kSampleFields));
  doc.emplace("actuation",
              util::encodeFields(plan.actuation, kActuationFields));
  doc.emplace("cores", util::encodeFields(plan.cores, kCoreFields));
  doc.emplace("churn", util::encodeFields(plan.churn, kChurnFields));
  return util::JsonValue{std::move(doc)};
}

}  // namespace dike::fault
