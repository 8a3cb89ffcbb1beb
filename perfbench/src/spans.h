#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

/// \file spans.h
/// In-memory span recorder for the traced run. A span has a name, a start
/// and end (now_s()), the index of the span that caused it, and the job it
/// belongs to. Spans are only ever recorded by the benchmark around calls
/// into the library's public functions; they are written out once, at the
/// end, and reduced to self time (duration minus the children's).

#include <cstddef>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
    std::string name;
    double start = 0.0;
    double end = 0.0;
    int parent = -1;
    std::string job;
};

/// Total self time and count of the spans sharing one name.
struct SelfTime {
    double seconds = 0.0;
    std::size_t count = 0;
};

class SpanRecorder {
public:
    /// RAII span on the recorder's single-threaded stack: its parent is
    /// whatever scope is open around it.
    class Scope {
    public:
        Scope(SpanRecorder& rec, std::string name, const std::string& job);
        ~Scope();
        Scope(const Scope&) = delete;
        Scope& operator=(const Scope&) = delete;

    private:
        SpanRecorder& rec_;
        int index_;
    };

    /// A span whose times were taken elsewhere (client-side wire events).
    int add(std::string name, double start, double end, int parent,
            std::string job);

    [[nodiscard]] const std::vector<Span>& spans() const noexcept { return spans_; }

    /// Self time per span name.
    [[nodiscard]] std::map<std::string, SelfTime> self_times() const;
    /// Summed duration of the direct children of every span named `name`.
    [[nodiscard]] double child_seconds(const std::string& name) const;
    /// Summed duration of every span named `name`.
    [[nodiscard]] double total_seconds(const std::string& name) const;

    /// One JSON object per line: name, start, end, parent, job.
    void write_jsonl(const std::string& path) const;

    /// Median wall time of opening and closing one Scope, over `rounds`
    /// rounds of `per_round` scopes on a scratch recorder.
    [[nodiscard]] static double scope_cost_s(std::size_t rounds, std::size_t per_round);

private:
    std::vector<Span> spans_;
    std::vector<int> stack_;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
