/**
 * @file
 * Score prediction accuracy against ground truth.
 *
 * The paper's Table 5 reports accuracy per application and can only
 * *conjecture* (§6.1) how each sharing class contributes. A forge
 * run knows every block's class, and prediction state is per block,
 * so replaying each class's record slice (PredictorBank::replay over
 * record pointers, the batched pipeline every replay runs) through
 * its own predictor bank yields exact per-class accuracy -- the
 * decomposition the paper could never measure on real benchmarks. The same pass validates trace::classifyTrace
 * against the labels: a census with a known answer.
 */

#ifndef COSMOS_FORGE_SCORE_HH
#define COSMOS_FORGE_SCORE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "cosmos/predictor_bank.hh"
#include "forge/synth.hh"
#include "trace/trace.hh"

namespace cosmos::forge
{

/** Accuracy and census agreement for one ground-truth class. */
struct ClassScore
{
    BlockClass cls{};
    std::uint64_t blocks = 0;  ///< blocks assigned this class
    std::uint64_t records = 0; ///< trace records replayed
    pred::AccuracyTracker accuracy;
    /** Blocks of this class the census saw / that it classified as
     *  the class's expected pattern. */
    std::uint64_t censusSeen = 0;
    std::uint64_t censusAgree = 0;
};

/** A forge run's full per-class decomposition. */
struct ForgeScore
{
    pred::CosmosConfig config{};
    /** Indexed by BlockClass value; classes with zero blocks keep
     *  zero counters. */
    std::vector<ClassScore> classes;
    /** Whole-trace accuracy (the merge of every class slice, which
     *  equals a full serial replay bit-for-bit). */
    pred::AccuracyTracker total;

    /** Table-5-style text table, one row per class. */
    std::string formatTable() const;
};

/**
 * Replay @p t through per-class predictor banks and census-check the
 * labels. Every record's block must be a forge block of @p src.
 */
ForgeScore scoreByClass(const trace::Trace &t, const SynthSource &src,
                        const pred::CosmosConfig &cfg);

/**
 * Write a `cosmos-forge-v1` JSON artifact (validated by
 * scripts/check_json.py --schema forge). @return false on I/O error.
 */
bool writeForgeReport(const std::string &path, const SynthSource &src,
                      const trace::Trace &t, const ForgeScore &score);

} // namespace cosmos::forge

#endif // COSMOS_FORGE_SCORE_HH
