/**
 * @file
 * Rendering of model-checking results: a human summary with the
 * extracted transition table, and the byte-stable `cosmos-model-v1`
 * JSON artifact for CI (scripts/check_json.py validates the schema).
 *
 * Byte-stability contract: two runs with the same configuration
 * produce byte-identical JSON. Table entries render in report order
 * (TransitionTable::entries), lint findings and violations in
 * discovery order, which BFS makes deterministic.
 */

#ifndef COSMOS_MODEL_REPORT_HH
#define COSMOS_MODEL_REPORT_HH

#include <string>

#include "model/explorer.hh"

namespace cosmos::model
{

/** Multi-line human-readable summary (stats, lint, violations). */
std::string renderReport(const ModelConfig &mc,
                         const ExploreResult &res);

/** Write the `cosmos-model-v1` JSON artifact; false on I/O error. */
bool writeReportJson(const std::string &path, const ModelConfig &mc,
                     const ExploreResult &res);

} // namespace cosmos::model

#endif // COSMOS_MODEL_REPORT_HH
