#include "model/report.hh"

#include <cstdio>
#include <fstream>
#include <sstream>

#include "common/config.hh"

namespace cosmos::model
{

namespace
{

// JSON string escaping, duplicated from check/fuzzer.cc's
// file-private helper (kept local on both sides: the two report
// writers evolve independently).
void
appendJsonString(std::ostream &os, const std::string &s)
{
    os << '"';
    for (char c : s) {
        switch (c) {
          case '"':  os << "\\\""; break;
          case '\\': os << "\\\\"; break;
          case '\n': os << "\\n"; break;
          case '\t': os << "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof buf, "\\u%04x", c);
                os << buf;
            } else {
                os << c;
            }
        }
    }
    os << '"';
}

void
appendViolation(std::ostream &os, const check::Violation &v)
{
    os << "{\"kind\": ";
    appendJsonString(os, check::toString(v.kind));
    os << ", \"block\": " << v.block << ", \"when\": " << v.when
       << ", \"nodes\": [";
    for (std::size_t i = 0; i < v.nodes.size(); ++i)
        os << (i ? ", " : "") << static_cast<unsigned>(v.nodes[i]);
    os << "], \"detail\": ";
    appendJsonString(os, v.detail);
    os << ", \"history\": [";
    for (std::size_t i = 0; i < v.history.size(); ++i) {
        os << (i ? ", " : "");
        appendJsonString(os, v.history[i]);
    }
    os << "]}";
}

const char *
stateName(Module m, std::uint8_t st)
{
    if (m == Module::cache)
        return proto::toString(static_cast<proto::LineState>(st));
    return toString(static_cast<DirAbstract>(st));
}

} // namespace

std::string
renderReport(const ModelConfig &mc, const ExploreResult &res)
{
    std::ostringstream os;
    os << "model check: nodes=" << mc.numNodes
       << " blocks=" << mc.numBlocks << " reorder=" << mc.reorder
       << " policy=" << toString(mc.policy)
       << " forwarding=" << (mc.forwarding ? 1 : 0);
    if (mc.legacyForwarding)
        os << " legacy_forwarding=1";
    if (mc.ignoreInvalEvery)
        os << " inject_ignore_inval=" << mc.ignoreInvalEvery;
    os << "\n";
    os << "explored " << res.states << " states, " << res.transitions
       << " transitions, depth " << res.maxDepth
       << (res.complete ? "" : " (INCOMPLETE: state bound hit)")
       << "\n";
    os << "violations: " << res.counterexamples.size()
       << ", deadlocks: " << res.deadlocks
       << ", trapped assertions: " << res.failedSteps << "\n";

    const auto lint = res.table.lint();
    os << "lint findings: " << lint.size() << "\n";
    for (const LintFinding &f : lint) {
        os << "  [" << LintFinding::toString(f.kind) << "] "
           << toString(f.module) << ": " << f.detail << "\n";
    }

    os << "declared-table consistency: "
       << (res.consistent() ? "ok" : "DIVERGED") << " ("
       << res.consistency.size() << " findings)\n";
    for (const ConsistencyFinding &f : res.consistency) {
        os << "  [" << ConsistencyFinding::toString(f.kind) << "] "
           << toString(f.module) << ": " << f.detail << "\n";
    }

    for (const Counterexample &ce : res.counterexamples) {
        os << "\nviolation: " << check::toString(ce.violation.kind)
           << " -- " << ce.violation.detail << "\n";
        os << "counterexample (" << ce.schedule.size() << " steps):\n";
        std::size_t i = 0;
        for (const Action &a : ce.schedule)
            os << "  step " << i++ << ": " << a.format() << "\n";
    }

    os << "\n" << res.table.format();
    return os.str();
}

bool
writeReportJson(const std::string &path, const ModelConfig &mc,
                const ExploreResult &res)
{
    std::ofstream os(path);
    if (!os)
        return false;

    os << "{\n  \"format\": \"cosmos-model-v1\",\n";
    os << "  \"config\": {\"nodes\": "
       << static_cast<unsigned>(mc.numNodes)
       << ", \"blocks\": " << mc.numBlocks
       << ", \"reorder\": " << mc.reorder << ", \"policy\": ";
    appendJsonString(os, toString(mc.policy));
    os << ", \"forwarding\": " << (mc.forwarding ? "true" : "false")
       << ", \"legacy_forwarding\": "
       << (mc.legacyForwarding ? "true" : "false")
       << ", \"ignore_inval_every\": " << mc.ignoreInvalEvery
       << "},\n";
    os << "  \"complete\": " << (res.complete ? "true" : "false")
       << ",\n";
    os << "  \"clean\": " << (res.clean() ? "true" : "false") << ",\n";
    os << "  \"states\": " << res.states << ",\n";
    os << "  \"transitions\": " << res.transitions << ",\n";
    os << "  \"max_depth\": " << res.maxDepth << ",\n";
    os << "  \"deadlocks\": " << res.deadlocks << ",\n";
    os << "  \"failed_steps\": " << res.failedSteps << ",\n";

    os << "  \"table\": {\"entries\": [";
    bool firstEntry = true;
    for (const TableEntry *entry : res.table.entries()) {
        const TableKey &key = entry->key;
        os << (firstEntry ? "" : ",") << "\n    {\"module\": ";
        appendJsonString(os, toString(key.module));
        os << ", \"state\": ";
        appendJsonString(os, stateName(key.module, key.state));
        os << ", \"input\": ";
        appendJsonString(os, inputName(key.input));
        os << ", \"context\": ";
        appendJsonString(os, key.context());
        os << ", \"hits\": " << entry->hits << ", \"outcomes\": [";
        bool firstOutcome = true;
        for (const Outcome &o : entry->outcomes) {
            os << (firstOutcome ? "" : ", ") << "{\"next\": ";
            appendJsonString(os, stateName(key.module, o.next));
            os << ", \"emits\": [";
            const std::vector<proto::MsgType> emits = o.emissions();
            for (std::size_t i = 0; i < emits.size(); ++i) {
                os << (i ? ", " : "");
                appendJsonString(os, proto::toString(emits[i]));
            }
            os << "]}";
            firstOutcome = false;
        }
        os << "]}";
        firstEntry = false;
    }
    os << (firstEntry ? "]" : "\n  ]") << ", \"nondeterministic\": "
       << res.table.nondeterministicKeys().size() << "},\n";

    os << "  \"lint\": [";
    const auto lint = res.table.lint();
    for (std::size_t i = 0; i < lint.size(); ++i) {
        os << (i ? "," : "") << "\n    {\"kind\": ";
        appendJsonString(os, LintFinding::toString(lint[i].kind));
        os << ", \"module\": ";
        appendJsonString(os, toString(lint[i].module));
        os << ", \"detail\": ";
        appendJsonString(os, lint[i].detail);
        os << "}";
    }
    os << (lint.empty() ? "]" : "\n  ]") << ",\n";

    os << "  \"consistent\": "
       << (res.consistent() ? "true" : "false") << ",\n";
    os << "  \"consistency\": [";
    for (std::size_t i = 0; i < res.consistency.size(); ++i) {
        const ConsistencyFinding &f = res.consistency[i];
        os << (i ? "," : "") << "\n    {\"kind\": ";
        appendJsonString(os, ConsistencyFinding::toString(f.kind));
        os << ", \"module\": ";
        appendJsonString(os, toString(f.module));
        os << ", \"detail\": ";
        appendJsonString(os, f.detail);
        os << "}";
    }
    os << (res.consistency.empty() ? "]" : "\n  ]") << ",\n";

    os << "  \"violations\": [";
    for (std::size_t i = 0; i < res.counterexamples.size(); ++i) {
        os << (i ? "," : "") << "\n    ";
        appendViolation(os, res.counterexamples[i].violation);
    }
    os << (res.counterexamples.empty() ? "]" : "\n  ]") << "\n}\n";
    return static_cast<bool>(os);
}

} // namespace cosmos::model
