#include "trace.h"

#include <fstream>

namespace perfbench {

Tracer::Span::Span(Tracer* tracer, std::string name)
    : tracer_(tracer), start_(Clock::now()) {
  if (tracer_ == nullptr) return;
  Record record;
  record.name = std::move(name);
  record.start = start_;
  record.end = start_;
  record.parent = tracer_->open_.empty() ? -1 : tracer_->open_.back();
  record.run_id = tracer_->run_id_;
  index_ = static_cast<int>(tracer_->records_.size());
  tracer_->records_.push_back(std::move(record));
  tracer_->open_.push_back(index_);
}

double Tracer::Span::End() {
  if (!open_) return ms_;
  open_ = false;
  const Clock::time_point end = Clock::now();
  ms_ = MillisBetween(start_, end);
  if (tracer_ != nullptr) {
    tracer_->records_[static_cast<size_t>(index_)].end = end;
    if (!tracer_->open_.empty() && tracer_->open_.back() == index_) {
      tracer_->open_.pop_back();
    }
  }
  return ms_;
}

std::vector<double> Tracer::SelfMs() const {
  std::vector<double> self(records_.size(), 0.0);
  for (size_t i = 0; i < records_.size(); ++i) {
    self[i] += MillisBetween(records_[i].start, records_[i].end);
    const int parent = records_[i].parent;
    // Children nest strictly inside their parent, so the part of the
    // parent they cover is exactly their own duration.
    if (parent >= 0) {
      self[static_cast<size_t>(parent)] -=
          MillisBetween(records_[i].start, records_[i].end);
    }
  }
  return self;
}

std::map<std::string, Tracer::Totals> Tracer::TotalsByName() const {
  const std::vector<double> self = SelfMs();
  std::map<std::string, Totals> out;
  for (size_t i = 0; i < records_.size(); ++i) {
    Totals& totals = out[records_[i].name];
    totals.total_ms += MillisBetween(records_[i].start, records_[i].end);
    totals.self_ms += self[i];
    ++totals.count;
  }
  return out;
}

double Tracer::Coverage() const {
  const std::vector<double> self = SelfMs();
  double root_ms = 0.0;
  double layer_self_ms = 0.0;
  for (size_t i = 0; i < records_.size(); ++i) {
    if (records_[i].parent < 0) {
      root_ms += MillisBetween(records_[i].start, records_[i].end);
    } else if (records_[i].name.find('.') != std::string::npos) {
      layer_self_ms += self[i];
    }
  }
  return root_ms > 0.0 ? layer_self_ms / root_ms : 0.0;
}

void Tracer::WriteChromeTrace(const std::string& path,
                              const std::string& metadata_json) const {
  const std::vector<double> self = SelfMs();
  const Clock::time_point origin =
      records_.empty() ? Clock::now() : records_.front().start;
  std::ofstream out(path, std::ios::trunc);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  for (size_t i = 0; i < records_.size(); ++i) {
    const Record& r = records_[i];
    const double ts_us = MillisBetween(origin, r.start) * 1000.0;
    const double dur_us = MillisBetween(r.start, r.end) * 1000.0;
    JsonObject args;
    args.Add("span", static_cast<int64_t>(i))
        .Add("parent", static_cast<int64_t>(r.parent))
        .Add("run_id", static_cast<int64_t>(r.run_id))
        .Add("self_us", self[i] * 1000.0);
    JsonObject event;
    event.Add("name", r.name)
        .Add("cat", r.name.substr(0, r.name.find('.')))
        .Add("ph", "X")
        .Add("ts", ts_us)
        .Add("dur", dur_us)
        .Add("pid", 1)
        .Add("tid", 1)
        .AddRaw("args", args.str());
    out << (i > 0 ? ",\n" : "\n") << event.str();
  }
  out << "\n],\"otherData\":" << metadata_json << "}\n";
  out.close();
  if (!out) Fatal("cannot write trace " + path);
}

}  // namespace perfbench
