#ifndef PERFBENCH_CHECKER_H
#define PERFBENCH_CHECKER_H

/// \file checker.h
/// The result checker behind `failed`/`correct`. For every job it checks,
/// after the timed window:
///  * the job ended with job_done (no error event), not cancelled, with
///    members_done == members_total == the decoded slice size;
///  * result members ascend with no gap over exactly that slice, and each
///    `ndf` decimal agrees bit for bit with its `ndf_hex`;
///  * a cache replay (resubmit or member slice) equals its origin's result
///    lines byte for byte, id aside;
///  * any other job: a seeded member sample (plus its first NaN member) is
///    recomputed in this process — parse_wire_job on a one-member
///    `members` slice of the job line, then wire_serial_reference — and
///    must match `ndf_hex` bit for bit, NaN as NaN;
///  * check_protocol_line accepts the job line, every non-result event and
///    a sample of result lines.

#include <cstddef>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "core/pipeline.h"
#include "server/wire.h"
#include "stream.h"

namespace perfbench {

struct CheckResult {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::size_t members_recomputed = 0;
    std::size_t lines_validated = 0;
};

class Checker {
public:
    Checker(std::size_t samples_per_period, std::uint64_t seed,
            std::size_t samples_per_job);

    /// True when the job passes; appends the reasons it does not.
    bool check_job(const JobRecord& job,
                   const std::map<std::string, const JobRecord*>& by_id,
                   std::vector<std::string>& problems, CheckResult& counts);

    /// Corrupts a recorded job in place: flips the lowest mantissa bit of
    /// one sampled member's ndf_hex (flip) and/or drops another member's
    /// result (drop). Returns false when the job has too few results.
    bool corrupt(JobRecord& job, bool flip, bool drop) const;

    /// Feeds the checker corrupted copies of a clean recorded job — one
    /// with a flipped ndf_hex bit, one with a dropped member — and returns
    /// true when both are caught.
    bool self_test(const JobRecord& job, std::string& report);

    /// The paper pipeline with the golden a decoded job evaluates against
    /// (one per kind, mode and settle count, built on first use).
    const xysig::core::SignaturePipeline&
    reference_pipeline(const xysig::server::WireJob& wire);

private:
    std::size_t spp_;
    std::uint64_t seed_;
    std::size_t samples_per_job_;
    std::map<std::string, std::unique_ptr<xysig::core::SignaturePipeline>> pipes_;
};

/// Decodes a job line exactly as the server does.
[[nodiscard]] xysig::server::WireJob decode_job_line(const std::string& line);

/// Sets the golden a decoded job is screened against, built as the sweep
/// service builds it: the job's nominal netlist for SPICE universes, the
/// paper biquad otherwise.
void set_reference_golden(xysig::core::SignaturePipeline& pipe,
                          const xysig::server::WireJob& wire);

/// Seeded member sample of one job: k distinct global ids of the slice
/// [first, first + count), plus the first member that streamed as NaN,
/// ascending. The checker recomputes these; the traced replay uses the
/// same sample.
[[nodiscard]] std::vector<std::size_t>
sample_members(std::uint64_t seed, const std::string& job_id, std::size_t first,
               std::size_t count, const std::vector<ParsedResult>& results,
               std::size_t k);

} // namespace perfbench

#endif // PERFBENCH_CHECKER_H
