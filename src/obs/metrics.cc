#include "obs/metrics.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstdio>

namespace quasaq::obs {

namespace {

// Renders a double the way the Prometheus text format expects.
std::string RenderNumber(double value) {
  if (std::isnan(value)) return "NaN";
  if (std::isinf(value)) return value > 0 ? "+Inf" : "-Inf";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

// Canonical child key: labels sorted by key, serialized "k=v,k=v".
std::string CanonicalKey(Labels labels) {
  std::sort(labels.begin(), labels.end());
  std::string key;
  for (const auto& [k, v] : labels) {
    if (!key.empty()) key += ',';
    key += k;
    key += '=';
    key += v;
  }
  return key;
}

// Prometheus series suffix: {k="v",k="v"} or empty for no labels.
std::string PromLabelSuffix(const Labels& labels) {
  if (labels.empty()) return "";
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ',';
    first = false;
    out += k + "=\"" + v + "\"";
  }
  out += '}';
  return out;
}

// Same but with one extra label appended (for histogram "le").
std::string PromLabelSuffixWith(const Labels& labels, const std::string& key,
                                const std::string& value) {
  Labels extended = labels;
  extended.emplace_back(key, value);
  return PromLabelSuffix(extended);
}

std::string JsonLabelObject(const Labels& labels) {
  std::string out = "{";
  bool first = true;
  for (const auto& [k, v] : labels) {
    if (!first) out += ", ";
    first = false;
    out.append("\"").append(JsonEscapeString(k)).append("\": \"")
        .append(JsonEscapeString(v)).append("\"");
  }
  out += '}';
  return out;
}

std::string JsonNumberOrNull(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.10g", value);
  return buf;
}

}  // namespace

std::string JsonEscapeString(std::string_view text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\t':
        out += "\\t";
        break;
      case '\r':
        out += "\\r";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string_view MetricTypeName(MetricType type) {
  switch (type) {
    case MetricType::kCounter:
      return "counter";
    case MetricType::kGauge:
      return "gauge";
    case MetricType::kHistogram:
      return "histogram";
  }
  return "unknown";
}

void Gauge::Sample(SimTime now, double value) {
  value_.store(value, std::memory_order_relaxed);
  MutexLock lock(&mu_);
  if (history_.samples().size() >= kMaxHistory) {
    ++history_dropped_;
    return;
  }
  history_.Add(now, value);
}

void Gauge::SampleMax(SimTime now, double value) {
  double current = value_.load(std::memory_order_relaxed);
  while (current < value) {
    if (value_.compare_exchange_weak(current, value,
                                     std::memory_order_relaxed)) {
      MutexLock lock(&mu_);
      if (history_.samples().size() >= kMaxHistory) {
        ++history_dropped_;
        return;
      }
      history_.Add(now, value);
      return;
    }
  }
}

TimeSeries Gauge::history() const {
  MutexLock lock(&mu_);
  return history_;
}

Histogram::Histogram(const HistogramOptions& options) {
  assert(options.first_bound > 0.0);
  assert(options.growth > 1.0);
  assert(options.bucket_count > 0);
  bounds_.reserve(static_cast<size_t>(options.bucket_count));
  double bound = options.first_bound;
  for (int i = 0; i < options.bucket_count; ++i) {
    bounds_.push_back(bound);
    bound *= options.growth;
  }
  counts_.assign(bounds_.size() + 1, 0);
}

void Histogram::Observe(double value) {
  // A value lands in the first bucket whose upper bound is >= value;
  // anything beyond the last finite bound goes to the +Inf bucket.
  size_t bucket =
      static_cast<size_t>(std::lower_bound(bounds_.begin(), bounds_.end(),
                                           value) -
                          bounds_.begin());
  MutexLock lock(&mu_);
  ++counts_[bucket];
  stats_.Add(value);
}

Histogram::Snapshot Histogram::snapshot() const {
  Snapshot snap;
  snap.bounds = bounds_;
  MutexLock lock(&mu_);
  snap.counts = counts_;
  snap.count = stats_.count();
  snap.sum = stats_.mean() * static_cast<double>(stats_.count());
  snap.min = stats_.min();
  snap.max = stats_.max();
  return snap;
}

MetricsRegistry::Family* MetricsRegistry::ResolveFamily(std::string_view name,
                                                        std::string_view help,
                                                        MetricType type) {
  auto it = families_.find(name);
  if (it == families_.end()) {
    Family family;
    family.type = type;
    family.help = std::string(help);
    it = families_.emplace(std::string(name), std::move(family)).first;
  } else if (it->second.type != type) {
    return nullptr;  // one name, one meaning
  }
  return &it->second;
}

Counter* MetricsRegistry::GetCounter(std::string_view name,
                                     std::string_view help,
                                     const Labels& labels) {
  MutexLock lock(&mu_);
  Family* family = ResolveFamily(name, help, MetricType::kCounter);
  if (family == nullptr) return nullptr;
  std::string key = CanonicalKey(labels);
  std::unique_ptr<Counter>& child = family->counters[key];
  if (child == nullptr) {
    child = std::make_unique<Counter>();
    family->label_sets.emplace(std::move(key), labels);
  }
  return child.get();
}

Gauge* MetricsRegistry::GetGauge(std::string_view name, std::string_view help,
                                 const Labels& labels) {
  MutexLock lock(&mu_);
  Family* family = ResolveFamily(name, help, MetricType::kGauge);
  if (family == nullptr) return nullptr;
  std::string key = CanonicalKey(labels);
  std::unique_ptr<Gauge>& child = family->gauges[key];
  if (child == nullptr) {
    child = std::make_unique<Gauge>();
    family->label_sets.emplace(std::move(key), labels);
  }
  return child.get();
}

Histogram* MetricsRegistry::GetHistogram(std::string_view name,
                                         std::string_view help,
                                         const HistogramOptions& options,
                                         const Labels& labels) {
  MutexLock lock(&mu_);
  Family* family = ResolveFamily(name, help, MetricType::kHistogram);
  if (family == nullptr) return nullptr;
  std::string key = CanonicalKey(labels);
  std::unique_ptr<Histogram>& child = family->histograms[key];
  if (child == nullptr) {
    family->histogram = options;
    child = std::make_unique<Histogram>(options);
    family->label_sets.emplace(std::move(key), labels);
  } else if (child->bounds() != Histogram(options).bounds()) {
    // A family has one bucket layout; a mismatched re-registration is
    // the histogram flavor of a type conflict.
    return nullptr;
  }
  return child.get();
}

std::vector<std::string> MetricsRegistry::MetricNames() const {
  MutexLock lock(&mu_);
  std::vector<std::string> names;
  names.reserve(families_.size());
  for (const auto& [name, family] : families_) names.push_back(name);
  return names;
}

std::string MetricsRegistry::PrometheusText() const {
  std::string out;
  MutexLock lock(&mu_);
  for (const auto& [name, family] : families_) {
    out += "# HELP " + name + " " + family.help + "\n";
    out += "# TYPE " + name + " " +
           std::string(MetricTypeName(family.type)) + "\n";
    for (const auto& [key, counter] : family.counters) {
      out += name + PromLabelSuffix(family.label_sets.at(key)) + " " +
             RenderNumber(counter->value()) + "\n";
    }
    for (const auto& [key, gauge] : family.gauges) {
      out += name + PromLabelSuffix(family.label_sets.at(key)) + " " +
             RenderNumber(gauge->value()) + "\n";
    }
    for (const auto& [key, histogram] : family.histograms) {
      const Labels& labels = family.label_sets.at(key);
      const Histogram::Snapshot snap = histogram->snapshot();
      uint64_t cumulative = 0;
      for (size_t i = 0; i < snap.counts.size(); ++i) {
        cumulative += snap.counts[i];
        std::string le =
            i < snap.bounds.size() ? RenderNumber(snap.bounds[i]) : "+Inf";
        out += name + "_bucket" + PromLabelSuffixWith(labels, "le", le) +
               " " + std::to_string(cumulative) + "\n";
      }
      out += name + "_sum" + PromLabelSuffix(labels) + " " +
             RenderNumber(snap.sum) + "\n";
      out += name + "_count" + PromLabelSuffix(labels) + " " +
             std::to_string(snap.count) + "\n";
    }
  }
  return out;
}

std::string MetricsRegistry::JsonSnapshot() const {
  std::string out = "{\n  \"metrics\": [";
  bool first_family = true;
  MutexLock lock(&mu_);
  for (const auto& [name, family] : families_) {
    if (!first_family) out += ',';
    first_family = false;
    out += "\n    {\"name\": \"" + JsonEscapeString(name) + "\", \"type\": \"" +
           std::string(MetricTypeName(family.type)) + "\", \"help\": \"" +
           JsonEscapeString(family.help) + "\", \"series\": [";
    bool first_series = true;
    // Opens a series object; the caller appends its fields.
    auto open_series = [&out, &first_series](const Labels& labels) {
      if (!first_series) out += ',';
      first_series = false;
      out += "\n      {\"labels\": " + JsonLabelObject(labels);
    };
    for (const auto& [key, counter] : family.counters) {
      open_series(family.label_sets.at(key));
      out += ", \"value\": " + JsonNumberOrNull(counter->value()) + "}";
    }
    for (const auto& [key, gauge] : family.gauges) {
      open_series(family.label_sets.at(key));
      out += ", \"value\": " + JsonNumberOrNull(gauge->value());
      const TimeSeries history = gauge->history();
      if (!history.empty()) {
        out += ", \"history\": [";
        bool first_sample = true;
        for (const TimeSeries::Sample& s : history.samples()) {
          if (!first_sample) out += ", ";
          first_sample = false;
          out.append("[").append(JsonNumberOrNull(SimTimeToSeconds(s.time)))
              .append(", ").append(JsonNumberOrNull(s.value)).append("]");
        }
        out += ']';
      }
      out += '}';
    }
    for (const auto& [key, histogram] : family.histograms) {
      open_series(family.label_sets.at(key));
      const Histogram::Snapshot snap = histogram->snapshot();
      out += ", \"count\": " + std::to_string(snap.count) +
             ", \"sum\": " + JsonNumberOrNull(snap.sum) +
             ", \"min\": " + JsonNumberOrNull(snap.min) +
             ", \"max\": " + JsonNumberOrNull(snap.max) + ", \"buckets\": [";
      for (size_t i = 0; i < snap.counts.size(); ++i) {
        if (i > 0) out += ", ";
        std::string le = i < snap.bounds.size()
                             ? JsonNumberOrNull(snap.bounds[i])
                             : "\"+Inf\"";
        out += "{\"le\": " + le +
               ", \"count\": " + std::to_string(snap.counts[i]) + "}";
      }
      out += "]}";
    }
    out += "\n    ]}";
  }
  out += "\n  ]\n}\n";
  return out;
}

}  // namespace quasaq::obs
