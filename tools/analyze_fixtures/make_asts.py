#!/usr/bin/env python3
"""Generate clang-shaped JSON AST dumps for the analyze fixtures.

The container running tier1 may not ship clang++, but the analyzer's
fixture tests must still exercise every checker.  This generator
composes dumps in exactly the shape `clang++ -Xclang -ast-dump=json`
emits for the constructs the checkers inspect (node kinds, qualType
strings, valueCategory, referencedDecl, wrapper nesting, the
file/line carry-forward begin locations), anchored to the REAL line
numbers of the .cpp fixtures: every location is looked up by substring
in the source, so editing a fixture cannot silently desynchronize the
dumps.

When a clang++ with JSON AST support IS available, the test suite
additionally regenerates the dumps live and asserts the same verdicts,
so the two paths cross-check each other.

Usage: make_asts.py <output-dir>
"""

from __future__ import annotations

import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))

# Where the fixture .cpp files live; the test suite overrides this (second
# CLI argument) to generate dumps for modified fixture copies, e.g. with
# inline sc-analyze suppression markers appended.
SRC_DIR = HERE

_next_id = [0]


def _nid():
    _next_id[0] += 1
    return f"0x{_next_id[0]:x}"


def node(kind, line=None, file=None, **kw):
    n = {"id": _nid(), "kind": kind}
    begin = {}
    if file is not None:
        begin["file"] = file
    if line is not None:
        begin["line"] = line
        begin["col"] = 1
        begin["tokLen"] = 1
    n["range"] = {"begin": begin, "end": dict(begin)}
    inner = kw.pop("inner", None)
    for key, val in kw.items():
        n[key] = val
    if inner is not None:
        n["inner"] = inner
    return n


def ty(qual):
    return {"qualType": qual}


def tu(*decls):
    return node("TranslationUnitDecl", inner=list(decls))


def compound(*stmts, line=None):
    return node("CompoundStmt", line=line, inner=list(stmts))


def func(name, line, file, body, kind="FunctionDecl", parent=None):
    kw = {"name": name, "inner": [body]}
    if parent is not None:
        kw["parentDeclContextId"] = parent
    return node(kind, line=line, file=file, **kw)


def declstmt(var_node, line=None):
    return node("DeclStmt", line=line, inner=[var_node])


def var(name, qual, init, line):
    inner = [init] if init is not None else []
    return node("VarDecl", line=line, name=name, type=ty(qual), inner=inner)


def declref(name, qual, line=None):
    return node("DeclRefExpr", line=line, type=ty(qual),
                valueCategory="lvalue",
                referencedDecl={"id": _nid(), "kind": "VarDecl",
                                "name": name})


def member(name, base, qual, line=None, arrow=False):
    return node("MemberExpr", line=line, name=name, isArrow=arrow,
                type=ty(qual), valueCategory="lvalue", inner=[base])


def this_expr(qual):
    return node("CXXThisExpr", type=ty(qual), valueCategory="prvalue")


def mcall(callee_member, args, qual, line=None, vc="prvalue"):
    return node("CXXMemberCallExpr", line=line, type=ty(qual),
                valueCategory=vc, inner=[callee_member] + list(args))


def opcall(opname, operands, qual, line=None, vc="lvalue"):
    callee = node("ImplicitCastExpr", type=ty("<function type>"),
                  inner=[node("DeclRefExpr", type=ty("<function type>"),
                              referencedDecl={"id": _nid(),
                                              "kind": "CXXMethodDecl",
                                              "name": opname})])
    return node("CXXOperatorCallExpr", line=line, type=ty(qual),
                valueCategory=vc, inner=[callee] + list(operands))


def cast(sub, qual=None):
    return node("ImplicitCastExpr",
                type=ty(qual) if qual else (sub.get("type") or ty("?")),
                inner=[sub])


def mtemp(sub):
    return node("MaterializeTemporaryExpr", type=sub.get("type", ty("?")),
                valueCategory="xvalue", inner=[sub])


def construct(sub, qual, line=None):
    return node("CXXConstructExpr", line=line, type=ty(qual),
                valueCategory="prvalue", inner=[sub])


def cleanups(sub):
    return node("ExprWithCleanups", type=sub.get("type", ty("?")),
                valueCategory=sub.get("valueCategory", "prvalue"),
                inner=[sub])


def ret(expr, line=None):
    return node("ReturnStmt", line=line, inner=[expr] if expr else [])


def ifstmt(init_var, cond, then, line=None):
    inner = []
    if init_var is not None:
        inner.append(declstmt(init_var))
    inner.extend([cond, then])
    return node("IfStmt", line=line, inner=inner)


def binop(op, lhs, rhs, qual, line=None):
    return node("BinaryOperator", line=line, opcode=op, type=ty(qual),
                inner=[lhs, rhs])


class Src:
    """Anchor lookup: line numbers come from the fixture source itself."""

    def __init__(self, filename):
        self.path = os.path.join(SRC_DIR, filename)
        with open(self.path, encoding="utf-8") as fh:
            self.lines = fh.read().splitlines()

    def line_of(self, needle, nth=1):
        seen = 0
        for i, text in enumerate(self.lines, 1):
            if needle in text:
                seen += 1
                if seen == nth:
                    return i
        raise SystemExit(
            f"make_asts: anchor '{needle}' (#{nth}) not found in {self.path}")


SHARED = "std::shared_ptr<const softcell::ServicePolicy>"
CLAUSEP = "const softcell::PolicyClause *"
POLICYP = "const softcell::ServicePolicy *"


def policy_producer(src, line):
    """brain.policy_snapshot() -- the snapshot-producing member call."""
    return mcall(
        member("policy_snapshot",
               cast(declref("brain", "const softcell::Brain", line=line)),
               "std::shared_ptr<const softcell::ServicePolicy> () const",
               line=line),
        [], SHARED, line=line, vc="prvalue")


def build_bad_rvalue():
    src = Src("bad_rvalue_snapshot.cpp")
    f = src.path
    l_warm = src.line_of("brain.policy_snapshot()->match(provider, app)")
    l_get = src.line_of("brain.policy_snapshot().get()")

    warm_body = compound(
        ifstmt(
            var("c", CLAUSEP,
                mcall(
                    member("match",
                           opcall("operator->",
                                  [cast(mtemp(policy_producer(src, l_warm)))],
                                  POLICYP, line=l_warm, vc="prvalue"),
                           "const PolicyClause *(unsigned, unsigned) const",
                           line=l_warm, arrow=True),
                    [cast(declref("provider", "unsigned int")),
                     cast(declref("app", "unsigned int"))],
                    CLAUSEP, line=l_warm),
                line=l_warm),
            cast(declref("c", CLAUSEP, line=l_warm)),
            ret(member("id", cast(declref("c", CLAUSEP)),
                       "unsigned int", arrow=True), line=l_warm + 1),
            line=l_warm),
        ret(node("IntegerLiteral", type=ty("unsigned int"), value="0")),
        line=src.line_of("unsigned clause_for(") + 0)

    escape_body = compound(
        ret(mcall(
            member("get", mtemp(policy_producer(src, l_get)),
                   "const ServicePolicy *() const", line=l_get),
            [], POLICYP, line=l_get, vc="prvalue"), line=l_get))

    return tu(
        func("clause_for", src.line_of("unsigned clause_for("), f, warm_body),
        func("escape", src.line_of("const ServicePolicy* escape("), f,
             escape_body))


def build_clean_rvalue():
    src = Src("clean_rvalue_snapshot.cpp")
    f = src.path
    l_pin = src.line_of("const auto policy = brain.policy_snapshot();")
    l_deref = src.line_of("policy->match(provider, app)")
    l_fwd = src.line_of("return brain.policy_snapshot();")
    l_arg = src.line_of("consume(brain.policy_snapshot());")

    pinned_body = compound(
        declstmt(var("policy", SHARED,
                     cleanups(construct(mtemp(policy_producer(src, l_pin)),
                                        SHARED, line=l_pin)),
                     line=l_pin)),
        ifstmt(
            var("c", CLAUSEP,
                mcall(
                    member("match",
                           opcall("operator->",
                                  [declref("policy", SHARED, line=l_deref)],
                                  POLICYP, line=l_deref, vc="prvalue"),
                           "const PolicyClause *(unsigned, unsigned) const",
                           line=l_deref, arrow=True),
                    [cast(declref("provider", "unsigned int")),
                     cast(declref("app", "unsigned int"))],
                    CLAUSEP, line=l_deref),
                line=l_deref),
            cast(declref("c", CLAUSEP)),
            ret(member("id", cast(declref("c", CLAUSEP)),
                       "unsigned int", arrow=True), line=l_deref),
            line=l_deref),
        ret(node("IntegerLiteral", type=ty("unsigned int"), value="0")))

    forward_body = compound(
        ret(construct(mtemp(policy_producer(src, l_fwd)), SHARED, line=l_fwd),
            line=l_fwd))

    pass_body = compound(
        node("CallExpr", line=l_arg, type=ty("void"),
             valueCategory="prvalue",
             inner=[
                 cast(node("DeclRefExpr", type=ty("void (...)"),
                           referencedDecl={"id": _nid(),
                                           "kind": "FunctionDecl",
                                           "name": "consume"})),
                 construct(mtemp(policy_producer(src, l_arg)), SHARED,
                           line=l_arg)]))

    return tu(
        func("clause_for_pinned", src.line_of("unsigned clause_for_pinned("), f,
             pinned_body),
        func("forward", src.line_of("> forward("), f, forward_body),
        func("pass_through", src.line_of("void pass_through("), f, pass_body))


def build_bad_handle():
    src = Src("bad_handle_mutation.cpp")
    f = src.path
    slab_t = "softcell::mem::Slab<softcell::Rec>"
    map_t = "softcell::FlatMap<unsigned int, softcell::Rec>"
    recp = "softcell::Rec *"

    l_get = src.line_of("Rec* rec = slab.get(h);")
    l_erase = src.line_of("slab.erase(victim);")
    l_use1 = src.line_of("return rec->value;")
    body1 = compound(
        declstmt(var("rec", recp,
                     mcall(member("get", declref("slab", slab_t, line=l_get),
                                  "Rec *(Handle)", line=l_get),
                           [cast(declref("h", "softcell::mem::Handle"))],
                           recp, line=l_get),
                     line=l_get)),
        mcall(member("erase", declref("slab", slab_t, line=l_erase),
                     "bool (Handle)", line=l_erase),
              [cast(declref("victim", "softcell::mem::Handle"))],
              "bool", line=l_erase),
        ret(member("value", cast(declref("rec", recp, line=l_use1)),
                   "unsigned int", line=l_use1, arrow=True), line=l_use1))

    l_at = src.line_of("Rec& rec = map.at(key);")
    l_emp = src.line_of("map.try_emplace(key + 1, Rec{});")
    l_use2 = src.line_of("return rec.value;")
    body2 = compound(
        declstmt(var("rec", "softcell::Rec &",
                     mcall(member("at", declref("map", map_t, line=l_at),
                                  "Rec &(const unsigned int &)", line=l_at),
                           [cast(declref("key", "unsigned int"))],
                           "softcell::Rec", line=l_at, vc="lvalue"),
                     line=l_at)),
        mcall(member("try_emplace", declref("map", map_t, line=l_emp),
                     "bool (const unsigned int &, const Rec &)", line=l_emp),
              [binop("+", cast(declref("key", "unsigned int")),
                     node("IntegerLiteral", type=ty("int"), value="1"),
                     "unsigned int", line=l_emp),
               mtemp(node("InitListExpr", type=ty("softcell::Rec"),
                          line=l_emp))],
              "bool", line=l_emp),
        ret(member("value", declref("rec", "softcell::Rec &", line=l_use2),
                   "unsigned int", line=l_use2), line=l_use2))

    return tu(
        func("bad_use_after_erase", src.line_of("unsigned bad_use_after_erase("),
             f, body1),
        func("bad_ref_across_insert",
             src.line_of("unsigned bad_ref_across_insert("), f, body2))


def build_clean_handle():
    src = Src("clean_handle_mutation.cpp")
    f = src.path
    slab_t = "softcell::mem::Slab<softcell::Rec>"
    map_t = "softcell::FlatMap<unsigned int, softcell::Rec>"
    recp = "softcell::Rec *"

    l_get = src.line_of("Rec* rec = slab.get(h);")
    l_first = src.line_of("unsigned first = rec->value;")
    l_erase = src.line_of("slab.erase(victim);")
    l_reget = src.line_of("rec = slab.get(h);")
    l_ret1 = src.line_of("return first + rec->value;")

    def slab_get(line):
        return mcall(member("get", declref("slab", slab_t, line=line),
                            "Rec *(Handle)", line=line),
                     [cast(declref("h", "softcell::mem::Handle"))],
                     recp, line=line)

    body1 = compound(
        declstmt(var("rec", recp, slab_get(l_get), line=l_get)),
        declstmt(var("first", "unsigned int",
                     cast(member("value", cast(declref("rec", recp,
                                                       line=l_first)),
                                 "unsigned int", line=l_first, arrow=True)),
                     line=l_first)),
        mcall(member("erase", declref("slab", slab_t, line=l_erase),
                     "bool (Handle)", line=l_erase),
              [cast(declref("victim", "softcell::mem::Handle"))],
              "bool", line=l_erase),
        binop("=", declref("rec", recp, line=l_reget), slab_get(l_reget),
              recp, line=l_reget),
        ret(binop("+", cast(declref("first", "unsigned int", line=l_ret1)),
                  cast(member("value", cast(declref("rec", recp,
                                                    line=l_ret1)),
                              "unsigned int", line=l_ret1, arrow=True)),
                  "unsigned int", line=l_ret1), line=l_ret1))

    l_at = src.line_of("Rec& rec = map.at(key);")
    l_read = src.line_of("unsigned v = rec.value;")
    l_er2 = src.line_of("map.erase(key);")
    l_ret2 = src.line_of("return v;")
    body2 = compound(
        declstmt(var("rec", "softcell::Rec &",
                     mcall(member("at", declref("map", map_t, line=l_at),
                                  "Rec &(const unsigned int &)", line=l_at),
                           [cast(declref("key", "unsigned int"))],
                           "softcell::Rec", line=l_at, vc="lvalue"),
                     line=l_at)),
        declstmt(var("v", "unsigned int",
                     cast(member("value", declref("rec", "softcell::Rec &",
                                                  line=l_read),
                                 "unsigned int", line=l_read)),
                     line=l_read)),
        mcall(member("erase", declref("map", map_t, line=l_er2),
                     "void (const unsigned int &)", line=l_er2),
              [cast(declref("key", "unsigned int"))], "void", line=l_er2),
        ret(cast(declref("v", "unsigned int", line=l_ret2)), line=l_ret2))

    return tu(
        func("clean_rederive", src.line_of("unsigned clean_rederive("), f,
             body1),
        func("clean_read_before", src.line_of("unsigned clean_read_before("),
             f, body2))


def guard_decl(var_name, guard_qual, owner_qual, mutex_name, line):
    """sc::LockGuard lock(mu_); with MemberExpr(mu_) on CXXThisExpr."""
    ctor = node("CXXConstructExpr", line=line, type=ty(guard_qual),
                valueCategory="prvalue",
                inner=[member(mutex_name, this_expr(owner_qual),
                              "softcell::sc::Mutex", line=line,
                              arrow=True)])
    return declstmt(var(var_name, guard_qual, ctor, line=line))


def peer_call(method, peer_name, peer_qual, owner_qual, ret_qual, line):
    """peer->method(); with MemberExpr(peer) on CXXThisExpr."""
    base = cast(member(peer_name, this_expr(owner_qual),
                       peer_qual, line=line, arrow=True))
    return mcall(member(method, base, f"void ()", line=line, arrow=True),
                 [], ret_qual, line=line)


def guard_method_call(var_name, guard_qual, method, line):
    """lock.unlock(); / lock.lock();"""
    return mcall(member(method, declref(var_name, guard_qual, line=line),
                        "void ()", line=line),
                 [], "void", line=line)


def build_bad_lock():
    src = Src("bad_lock_cycle.cpp")
    f = src.path
    guard = "softcell::sc::LockGuard"
    leader_rec = node("CXXRecordDecl", name="Leader", tagUsed="struct",
                      line=src.line_of("struct Leader {"), file=f)
    follower_rec = node("CXXRecordDecl", name="Follower", tagUsed="struct",
                        line=src.line_of("struct Follower {"))

    l_poke = src.line_of("void Leader::poke()")
    lp_body = compound(
        guard_decl("lock", guard, "softcell::Leader *", "mu_",
                   src.line_of("// Leader::mu_ held")),
        peer_call("touched", "peer", "softcell::Follower *",
                  "softcell::Leader *", "void",
                  src.line_of("// ...while Follower")))

    l_lt = src.line_of("void Leader::touched()")
    lt_body = compound(guard_decl("lock", guard, "softcell::Leader *", "mu_",
                                  l_lt))

    f_poke = src.line_of("void Follower::poke()")
    fp_body = compound(
        guard_decl("lock", guard, "softcell::Follower *", "mu_",
                   src.line_of("// Follower::mu_ held")),
        peer_call("touched", "peer", "softcell::Leader *",
                  "softcell::Follower *", "void",
                  src.line_of("// ...while Leader")))

    f_lt = src.line_of("void Follower::touched()")
    ft_body = compound(guard_decl("lock", guard, "softcell::Follower *",
                                  "mu_", f_lt))

    return tu(
        leader_rec, follower_rec,
        func("poke", l_poke, f, lp_body, kind="CXXMethodDecl",
             parent=leader_rec["id"]),
        func("touched", l_lt, f, lt_body, kind="CXXMethodDecl",
             parent=leader_rec["id"]),
        func("poke", f_poke, f, fp_body, kind="CXXMethodDecl",
             parent=follower_rec["id"]),
        func("touched", f_lt, f, ft_body, kind="CXXMethodDecl",
             parent=follower_rec["id"]))


def build_clean_lock():
    src = Src("clean_lock_cycle.cpp")
    f = src.path
    guard = "softcell::sc::LockGuard"
    ulock = "softcell::sc::UniqueLock"
    committer_rec = node("CXXRecordDecl", name="Committer", tagUsed="struct",
                         line=src.line_of("struct Committer {"), file=f)
    core_rec = node("CXXRecordDecl", name="Core", tagUsed="struct",
                    line=src.line_of("struct Core {"))

    l_submit = src.line_of("void Committer::submit()")
    submit_body = compound(
        declstmt(var("lock", ulock,
                     node("CXXConstructExpr",
                          line=src.line_of("sc::UniqueLock lock(mu_);"),
                          type=ty(ulock), valueCategory="prvalue",
                          inner=[member("mu_",
                                        this_expr("softcell::Committer *"),
                                        "softcell::sc::Mutex",
                                        arrow=True)]),
                     line=src.line_of("sc::UniqueLock lock(mu_);"))),
        guard_method_call("lock", ulock, "unlock",
                          src.line_of("lock.unlock();")),
        peer_call("apply", "core", "softcell::Core *",
                  "softcell::Committer *", "void",
                  src.line_of("core->apply();")),
        guard_method_call("lock", ulock, "lock",
                          src.line_of("lock.lock();")))

    l_enq = src.line_of("void Committer::enqueue()")
    enqueue_body = compound(
        guard_decl("lock", guard, "softcell::Committer *", "mu_", l_enq))

    l_apply = src.line_of("void Core::apply()")
    apply_body = compound(
        guard_decl("lock", guard, "softcell::Core *", "mu_", l_apply))

    l_notify = src.line_of("void Core::notify()")
    notify_body = compound(
        guard_decl("lock", guard, "softcell::Core *", "mu_",
                   src.line_of("sc::LockGuard lock(mu_);", nth=3)),
        peer_call("enqueue", "committer", "softcell::Committer *",
                  "softcell::Core *", "void",
                  src.line_of("committer->enqueue();")))

    return tu(
        committer_rec, core_rec,
        func("submit", l_submit, f, submit_body, kind="CXXMethodDecl",
             parent=committer_rec["id"]),
        func("enqueue", l_enq, f, enqueue_body, kind="CXXMethodDecl",
             parent=committer_rec["id"]),
        func("apply", l_apply, f, apply_body, kind="CXXMethodDecl",
             parent=core_rec["id"]),
        func("notify", l_notify, f, notify_body, kind="CXXMethodDecl",
             parent=core_rec["id"]))


BUILDERS = {
    "bad_rvalue_snapshot": build_bad_rvalue,
    "clean_rvalue_snapshot": build_clean_rvalue,
    "bad_handle_mutation": build_bad_handle,
    "clean_handle_mutation": build_clean_handle,
    "bad_lock_cycle": build_bad_lock,
    "clean_lock_cycle": build_clean_lock,
}


def main(argv):
    if len(argv) not in (2, 3):
        print("usage: make_asts.py <output-dir> [source-dir]",
              file=sys.stderr)
        return 2
    out_dir = argv[1]
    if len(argv) == 3:
        global SRC_DIR
        SRC_DIR = os.path.abspath(argv[2])
    os.makedirs(out_dir, exist_ok=True)
    for name, build in sorted(BUILDERS.items()):
        dump = build()
        path = os.path.join(out_dir, f"{name}.ast.json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(dump, fh, indent=1)
            fh.write("\n")
        print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
