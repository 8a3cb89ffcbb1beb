#include "spans.h"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "server/json.h"
#include "server_process.h"

namespace perfbench {

using xysig::server::JsonValue;

SpanRecorder::Scope::Scope(SpanRecorder& rec, std::string name,
                           const std::string& job)
    : rec_(rec),
      index_(rec.add(std::move(name), now_s(), 0.0,
                     rec.stack_.empty() ? -1 : rec.stack_.back(), job)) {
    rec_.stack_.push_back(index_);
}

SpanRecorder::Scope::~Scope() {
    rec_.spans_[static_cast<std::size_t>(index_)].end = now_s();
    rec_.stack_.pop_back();
}

int SpanRecorder::add(std::string name, double start, double end, int parent,
                      std::string job) {
    spans_.push_back({std::move(name), start, end, parent, std::move(job)});
    return static_cast<int>(spans_.size()) - 1;
}

std::map<std::string, SelfTime> SpanRecorder::self_times() const {
    std::vector<double> children(spans_.size(), 0.0);
    for (const Span& s : spans_)
        if (s.parent >= 0)
            children[static_cast<std::size_t>(s.parent)] += s.end - s.start;
    std::map<std::string, SelfTime> out;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        SelfTime& st = out[spans_[i].name];
        st.seconds += spans_[i].end - spans_[i].start - children[i];
        ++st.count;
    }
    return out;
}

double SpanRecorder::child_seconds(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_)
        if (s.parent >= 0 &&
            spans_[static_cast<std::size_t>(s.parent)].name == name)
            sum += s.end - s.start;
    return sum;
}

double SpanRecorder::total_seconds(const std::string& name) const {
    double sum = 0.0;
    for (const Span& s : spans_)
        if (s.name == name)
            sum += s.end - s.start;
    return sum;
}

void SpanRecorder::write_jsonl(const std::string& path) const {
    std::ofstream out(path);
    if (!out)
        throw std::runtime_error("cannot write " + path);
    for (const Span& s : spans_) {
        JsonValue::Object o;
        o.emplace("name", s.name);
        o.emplace("start", s.start);
        o.emplace("end", s.end);
        o.emplace("parent", s.parent);
        o.emplace("job", s.job);
        out << JsonValue(std::move(o)).dump() << "\n";
    }
}

double SpanRecorder::scope_cost_s(std::size_t rounds, std::size_t per_round) {
    std::vector<double> per_scope;
    for (std::size_t r = 0; r < rounds; ++r) {
        SpanRecorder rec;
        const double t0 = now_s();
        for (std::size_t i = 0; i < per_round; ++i)
            Scope s(rec, "pipeline.evaluate", "g0");
        per_scope.push_back((now_s() - t0) / static_cast<double>(per_round));
    }
    std::sort(per_scope.begin(), per_scope.end());
    return per_scope.empty() ? 0.0 : per_scope[per_scope.size() / 2];
}

} // namespace perfbench
