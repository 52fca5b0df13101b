#include "trace.hpp"

#include <cstring>
#include <fstream>

namespace perfbench {

double Span::attr(std::string_view key, double fallback) const {
  for (std::size_t i = 0; i < num_attrs; ++i) {
    if (key == attrs[i].first) return attrs[i].second;
  }
  return fallback;
}

Tracer::Scope Tracer::span(const char* name) {
  if (!on_) return Scope(nullptr, -1);
  Span s;
  s.name = name;
  s.parent = open_;
  s.start_ns = ns_since(origin_);
  spans_.push_back(s);
  open_ = static_cast<std::int32_t>(spans_.size() - 1);
  return Scope(this, open_);
}

void Tracer::Scope::set(const char* key, double value) {
  if (t_ == nullptr) return;
  Span& s = t_->spans_[static_cast<std::size_t>(idx_)];
  if (s.num_attrs < Span::kMaxAttrs) s.attrs[s.num_attrs++] = {key, value};
}

void Tracer::Scope::end() {
  if (t_ == nullptr) return;
  Span& s = t_->spans_[static_cast<std::size_t>(idx_)];
  s.end_ns = ns_since(t_->origin_);
  t_->open_ = s.parent;
  t_ = nullptr;
}

std::vector<const Span*> Tracer::named(std::string_view name) const {
  std::vector<const Span*> out;
  for (const Span& s : spans_) {
    if (s.end_ns >= 0 && name == s.name) out.push_back(&s);
  }
  return out;
}

bool Tracer::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent;
    for (std::size_t a = 0; a < s.num_attrs; ++a) {
      out << ",\"" << s.attrs[a].first << "\":" << s.attrs[a].second;
    }
    out << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench
