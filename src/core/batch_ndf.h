#ifndef XYSIG_CORE_BATCH_NDF_H
#define XYSIG_CORE_BATCH_NDF_H

/// \file batch_ndf.h
/// Parallel batch NDF engine: evaluates a universe of CUTs — a fault
/// universe, a set of mismatch samples, an f0/Q sweep — against one golden
/// SignaturePipeline on the process-wide shared ThreadPool, collecting the
/// NDFs into a vector. It is a thin wrapper over core::run_universe, so
/// results are in input order, bit-identical to calling
/// SignaturePipeline::ndf_of one by one, and non-convergent members come
/// back as quiet NaN (see Universe::evaluate). Called from inside a
/// parallel_for body or on any pool worker, it runs on the calling thread
/// instead of waiting on pool slots it may be occupying itself.

#include <memory>
#include <span>
#include <vector>

#include "core/universe.h"

namespace xysig::core {

struct BatchNdfOptions {
    unsigned threads = 0; ///< worker count; 0 = default_thread_count()
};

class BatchNdfEvaluator {
public:
    using Options = BatchNdfOptions;

    /// The pipeline is kept by reference and must outlive the evaluator;
    /// its golden signature must be set before evaluate() is called.
    explicit BatchNdfEvaluator(const SignaturePipeline& pipeline,
                               Options options = {});

    [[nodiscard]] const SignaturePipeline& pipeline() const noexcept {
        return *pipeline_;
    }

    /// NDF of every CUT against the golden signature, in input order. CUTs
    /// are evaluated concurrently and must not share mutable state:
    /// BehaviouralCut is safe; SpiceCuts must each own a distinct netlist.
    [[nodiscard]] std::vector<double> evaluate(
        std::span<const filter::Cut* const> cuts) const;

    /// Owning-pointer convenience overload.
    [[nodiscard]] std::vector<double> evaluate(
        const std::vector<std::unique_ptr<filter::Cut>>& cuts) const;

    /// The deviated-Biquad universe of a parameter sweep (the Fig. 8
    /// experiment's inner loop).
    [[nodiscard]] std::vector<double> evaluate_deviations(
        const filter::Biquad& nominal, std::span<const double> deviations_percent,
        SweptParameter parameter = SweptParameter::f0) const;

    /// One owning SpiceCut per fault, each over its own deep-cloned,
    /// fault-injected netlist: the clone-per-fault universe, the independent
    /// reference for FaultUniverse's clone-per-worker inject/repair scheme.
    [[nodiscard]] static std::vector<std::unique_ptr<filter::Cut>>
    build_fault_universe(const spice::Netlist& nominal,
                         std::span<const capture::NetlistFault> faults,
                         const SpiceObservation& observation);

private:
    /// NDF of every member against the golden signature, in member order.
    [[nodiscard]] std::vector<double> evaluate(const Universe& universe) const;

    const SignaturePipeline* pipeline_;
    Options options_;
};

} // namespace xysig::core

#endif // XYSIG_CORE_BATCH_NDF_H
