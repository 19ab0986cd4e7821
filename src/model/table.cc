#include "model/table.hh"

#include <algorithm>
#include <iomanip>
#include <sstream>
#include <tuple>

#include "common/log.hh"

namespace cosmos::model
{

const char *
toString(Module m)
{
    return m == Module::cache ? "cache" : "directory";
}

const char *
toString(DirAbstract s)
{
    switch (s) {
      case DirAbstract::idle:        return "idle";
      case DirAbstract::shared:      return "shared";
      case DirAbstract::exclusive:   return "exclusive";
      case DirAbstract::busy_read:   return "busy_read";
      case DirAbstract::busy_write:  return "busy_write";
      case DirAbstract::busy_recall: return "busy_recall";
    }
    return "?";
}

const char *
inputName(std::uint8_t input)
{
    if (input == input_proc_read)
        return "proc_read";
    if (input == input_proc_write)
        return "proc_write";
    cosmos_assert(input < proto::num_msg_types, "bad table input ",
                  unsigned{input});
    return proto::toString(static_cast<proto::MsgType>(input));
}

namespace
{

const char *
stateName(Module m, std::uint8_t st)
{
    if (m == Module::cache)
        return proto::toString(static_cast<proto::LineState>(st));
    return toString(static_cast<DirAbstract>(st));
}

/** Inputs a module can receive, in reporting order. */
std::vector<std::uint8_t>
moduleInputs(Module m)
{
    std::vector<std::uint8_t> in;
    for (unsigned t = 0; t < proto::num_msg_types; ++t) {
        const auto mt = static_cast<proto::MsgType>(t);
        const bool cacheSide = receiverRole(mt) == proto::Role::cache;
        if (cacheSide == (m == Module::cache))
            in.push_back(static_cast<std::uint8_t>(t));
    }
    if (m == Module::cache) {
        in.push_back(input_proc_read);
        in.push_back(input_proc_write);
    }
    return in;
}

/** All declared states of a module, in enum order. */
std::vector<std::uint8_t>
moduleStates(Module m)
{
    std::vector<std::uint8_t> st;
    for (unsigned s = 0; s < 6; ++s)
        st.push_back(static_cast<std::uint8_t>(s));
    (void)m; // both modules declare six states
    return st;
}

} // namespace

std::string
TableKey::format() const
{
    std::string s = detail::concat(toString(module), " ",
                                   stateName(module, state), " x ",
                                   inputName(input));
    if (guard != proto::guard_none)
        s += detail::concat(" [", context(), "]");
    return s;
}

void
Sample::emit(proto::MsgType t)
{
    cosmos_assert(numEmissions < max_emissions,
                  "handler emitted more than ", max_emissions,
                  " messages");
    emissions[numEmissions++] = t;
}

std::vector<proto::MsgType>
Outcome::emissions() const
{
    std::vector<proto::MsgType> types;
    for (unsigned t = 0; t < proto::num_msg_types; ++t)
        if (emits & (1u << t))
            types.push_back(static_cast<proto::MsgType>(t));
    return types;
}

std::string
Outcome::format(Module module) const
{
    std::string s = detail::concat("-> ", stateName(module, next));
    if (emits != 0) {
        s += " !";
        for (proto::MsgType t : emissions())
            s += detail::concat(" ", proto::toString(t));
    }
    return s;
}

namespace
{

/** Report order of outcomes: by next state, then by the ascending
 *  emission lists compared lexicographically. */
bool
outcomeLess(const Outcome &a, const Outcome &b)
{
    if (a.next != b.next)
        return a.next < b.next;
    const unsigned diff = a.emits ^ b.emits;
    if (diff == 0)
        return false;
    // The lists agree below the lowest type where they part. The one
    // holding that type continues with it; the other continues with
    // a higher type (and is greater) or ends (and is a prefix).
    const unsigned low = diff & (~diff + 1);
    const unsigned above = ~((low << 1) - 1);
    if (a.emits & low)
        return (b.emits & above) != 0;
    return (a.emits & above) == 0;
}

std::uint64_t
packKey(Module module, std::uint8_t state, std::uint8_t input,
        proto::GuardBits guard)
{
    return std::uint64_t{guard} |
           std::uint64_t{input} << 32 |
           std::uint64_t{state} << 40 |
           std::uint64_t{static_cast<std::uint8_t>(module)} << 48;
}

std::uint16_t
emissionMask(std::span<const proto::MsgType> types)
{
    std::uint16_t mask = 0;
    for (proto::MsgType t : types)
        mask |= static_cast<std::uint16_t>(1u << static_cast<unsigned>(t));
    return mask;
}

/** More than one outcome, and not a backlog entry: those aggregate
 *  over the queued requests, and their outcome legitimately depends
 *  on what was waiting. */
bool
nondeterministic(const TableEntry &e)
{
    return e.outcomes.size() > 1 &&
           !(e.key.guard & (proto::guard_q | proto::guard_queued));
}

} // namespace

void
TransitionTable::record(const Sample &s)
{
    const std::uint64_t packed =
        packKey(s.module, s.pre, s.input, s.guard);
    const std::uint32_t *at = index_.find(packed);
    TableEntry *e;
    if (at != nullptr) {
        e = &entries_[*at];
    } else {
        index_.insert(packed,
                      static_cast<std::uint32_t>(entries_.size()));
        e = &entries_.emplace_back();
        e->key = TableKey{s.module, s.pre, s.input, s.guard};
    }
    ++e->hits;

    const Outcome o{s.post, emissionMask(s.emitted())};
    const auto pos = std::lower_bound(e->outcomes.begin(),
                                      e->outcomes.end(), o, outcomeLess);
    if (pos == e->outcomes.end() || !(*pos == o))
        e->outcomes.insert(pos, o);
}

std::vector<const TableEntry *>
TransitionTable::entries() const
{
    std::vector<std::pair<std::string, const TableEntry *>> keyed;
    keyed.reserve(entries_.size());
    for (const TableEntry &e : entries_)
        keyed.emplace_back(e.key.context(), &e);
    std::sort(keyed.begin(), keyed.end(),
              [](const auto &a, const auto &b) {
                  const TableKey &x = a.second->key;
                  const TableKey &y = b.second->key;
                  return std::tie(x.module, x.state, x.input, a.first) <
                         std::tie(y.module, y.state, y.input, b.first);
              });
    std::vector<const TableEntry *> out;
    out.reserve(keyed.size());
    for (const auto &k : keyed)
        out.push_back(k.second);
    return out;
}

std::set<std::uint8_t>
TransitionTable::observedStates(Module m) const
{
    std::set<std::uint8_t> st;
    for (const TableEntry &e : entries_) {
        if (e.key.module != m)
            continue;
        st.insert(e.key.state);
        for (const Outcome &o : e.outcomes)
            st.insert(o.next);
    }
    return st;
}

std::vector<const TableKey *>
TransitionTable::nondeterministicKeys() const
{
    std::vector<const TableKey *> keys;
    for (const TableEntry *e : entries())
        if (nondeterministic(*e))
            keys.push_back(&e->key);
    return keys;
}

const char *
LintFinding::toString(Kind k)
{
    switch (k) {
      case Kind::unreachable_state: return "unreachable_state";
      case Kind::dead_input:        return "dead_input";
      case Kind::nondeterministic:  return "nondeterministic";
      case Kind::forwarding_asymmetry:
        return "forwarding_asymmetry";
    }
    return "?";
}

std::vector<LintFinding>
TransitionTable::lint() const
{
    std::vector<LintFinding> findings;
    const std::vector<const TableEntry *> rows = entries();

    for (Module m : {Module::cache, Module::directory}) {
        const std::set<std::uint8_t> observed = observedStates(m);

        for (std::uint8_t st : moduleStates(m)) {
            if (observed.count(st))
                continue;
            findings.push_back(
                {LintFinding::Kind::unreachable_state, m,
                 detail::concat("state ", stateName(m, st),
                                " is never reached")});
        }

        // Inputs never seen module-wide get one finding; inputs seen
        // somewhere get one finding per observed state that never
        // receives them.
        std::set<std::uint8_t> observedInputs;
        for (const TableEntry *e : rows)
            if (e->key.module == m)
                observedInputs.insert(e->key.input);

        for (std::uint8_t in : moduleInputs(m)) {
            if (!observedInputs.count(in)) {
                findings.push_back(
                    {LintFinding::Kind::dead_input, m,
                     detail::concat("input ", inputName(in),
                                    " is never exercised")});
                continue;
            }
            for (std::uint8_t st : observed) {
                bool seen = false;
                for (const TableEntry *e : rows) {
                    if (e->key.module == m && e->key.state == st &&
                        e->key.input == in) {
                        seen = true;
                        break;
                    }
                }
                if (!seen) {
                    findings.push_back(
                        {LintFinding::Kind::dead_input, m,
                         detail::concat("state ", stateName(m, st),
                                        " never receives ",
                                        inputName(in))});
                }
            }
        }
    }

    // inval_ro_request sweeps are never forwarded (the home holds
    // the data while the block is shared), so no cache row handling
    // one may emit a data response. A violation here means
    // DirectoryController::forward() started marking ro-sweeps
    // `forwarded`, which the fwd_ack handshake does not cover.
    for (const TableEntry *e : rows) {
        const TableKey &key = e->key;
        if (key.module != Module::cache ||
            key.input != static_cast<std::uint8_t>(
                             proto::MsgType::inval_ro_request)) {
            continue;
        }
        for (const Outcome &o : e->outcomes) {
            for (proto::MsgType t : o.emissions()) {
                if (t == proto::MsgType::get_ro_response ||
                    t == proto::MsgType::get_rw_response) {
                    findings.push_back(
                        {LintFinding::Kind::forwarding_asymmetry,
                         key.module,
                         detail::concat(key.format(),
                                        " emits a forwarded data "
                                        "response (",
                                        proto::toString(t), ")")});
                }
            }
        }
    }

    for (const TableEntry *e : rows) {
        if (!nondeterministic(*e))
            continue;
        std::string nexts;
        for (const Outcome &o : e->outcomes) {
            if (!nexts.empty())
                nexts += ", ";
            nexts += stateName(e->key.module, o.next);
        }
        findings.push_back(
            {LintFinding::Kind::nondeterministic, e->key.module,
             detail::concat(e->key.format(), " has ", e->outcomes.size(),
                            " outcomes (next states: {", nexts, "})")});
    }

    return findings;
}

const char *
ConsistencyFinding::toString(Kind k)
{
    switch (k) {
      case Kind::undeclared_transition: return "undeclared_transition";
      case Kind::unreachable_reached:   return "unreachable_reached";
      case Kind::outcome_mismatch:      return "outcome_mismatch";
    }
    return "?";
}

std::vector<ConsistencyFinding>
TransitionTable::diffAgainstDeclared(
    const proto::ProtocolTable &declared) const
{
    std::vector<ConsistencyFinding> findings;
    for (const TableEntry *e : entries()) {
        const TableKey &key = e->key;
        const proto::Role role = key.module == Module::cache
                                     ? proto::Role::cache
                                     : proto::Role::directory;
        const proto::TransitionRow *row =
            declared.find(role, key.state, key.input, key.guard);
        if (!row) {
            findings.push_back(
                {ConsistencyFinding::Kind::undeclared_transition,
                 key.module,
                 detail::concat("no declared row covers ",
                                key.format())});
            continue;
        }
        if (row->unreachable) {
            findings.push_back(
                {ConsistencyFinding::Kind::unreachable_reached,
                 key.module,
                 detail::concat(key.format(),
                                " matched the declared-unreachable "
                                "marker at ",
                                row->where())});
            continue;
        }
        // A completing row serviced from the backlog folds the
        // re-served request's transition into the same sample.
        if (row->completes && (key.guard & proto::guard_q))
            continue;

        const Outcome decl{row->next, emissionMask(row->emits)};
        for (const Outcome &o : e->outcomes) {
            if (o == decl)
                continue;
            findings.push_back(
                {ConsistencyFinding::Kind::outcome_mismatch,
                 key.module,
                 detail::concat(key.format(), " observed ",
                                o.format(key.module),
                                " but the row at ", row->where(),
                                " declares ", decl.format(key.module))});
        }
    }
    return findings;
}

std::string
TransitionTable::format() const
{
    std::ostringstream os;
    Module last = Module::directory;
    bool first = true;
    for (const TableEntry *e : entries()) {
        const TableKey &key = e->key;
        if (first || key.module != last) {
            os << (first ? "" : "\n") << toString(key.module)
               << " transitions:\n";
            last = key.module;
            first = false;
        }
        for (const Outcome &o : e->outcomes) {
            os << "  " << std::left << std::setw(52)
               << key.format().substr(
                      std::string(toString(key.module)).size() + 1)
               << " " << o.format(key.module);
            if (e->outcomes.size() > 1)
                os << "  (1 of " << e->outcomes.size() << ")";
            os << "  [" << e->hits << " hits]\n";
        }
    }
    return os.str();
}

} // namespace cosmos::model
