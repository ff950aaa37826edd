package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSchemas._
import repro.core.model._
import repro.core.model.ColType._
import repro.core.query._

class MinimizeSpec extends AnyFunSuite {
  private def a(al: String, c: String) = Attr(al, c)

  test("Q1' is already minimal (Example 5)") {
    val m = Minimize.minimize(q1Prime, cat)
    assert(m.atoms == q1Prime.atoms)
    assert(m.dropped.isEmpty)
  }

  test("min(Q2) drops the redundant PS' atom (Example 5)") {
    val m = Minimize.minimize(q2, cat)
    assert(m.aliases == Set("PS", "S", "N"))
    assert(m.dropped.map(_.alias) == Seq("PS2"))
  }

  test("X^{min(Q2)}_PS no longer contains availqty (Example 5)") {
    val m = Minimize.minimize(q2, cat)
    assert(m.xMin("PS") == Set(a("PS", "suppkey"), a("PS", "supplycost")))
  }

  test("minimized Q2 equals Q1' up to predicate ordering") {
    val m = Minimize.minimize(q2, cat)
    assert(m.query.atoms.toSet == q1Prime.atoms.toSet)
    assert(m.query.projection == q1Prime.projection)
  }

  test("duplicate renamings of the projected relation collapse") {
    // pi_A (R1(A,B) join R2(A,B)) where both rename R: one atom survives.
    val smallCat = Catalog(Seq(RelSchema("R", Seq("A" -> LongT, "B" -> LongT), Nil)))
    val q = Query("qq", Seq(RelAtom("R", "R1"), RelAtom("R", "R2")),
      Seq(EqAttr(a("R1", "A"), a("R2", "A")), EqAttr(a("R1", "B"), a("R2", "B"))),
      Seq(a("R1", "A") -> "A"), distinct = true)
    val m = Minimize.minimize(q, smallCat)
    assert(m.atoms.size == 1)
  }

  test("non-redundant self-joins are kept") {
    // R1.B = R2.A chains two distinct occurrences: neither is redundant.
    val smallCat = Catalog(Seq(RelSchema("R", Seq("A" -> LongT, "B" -> LongT), Nil)))
    val q = Query("chain", Seq(RelAtom("R", "R1"), RelAtom("R", "R2")),
      Seq(EqAttr(a("R1", "B"), a("R2", "A"))),
      Seq(a("R2", "B") -> "out"), distinct = true)
    val m = Minimize.minimize(q, smallCat)
    assert(m.atoms.size == 2)
  }

  test("atoms of different relations are never merged") {
    val m = Minimize.minimize(q1, cat)
    assert(m.atoms.size == 3)
  }

  test("range predicates protect their attributes from elimination") {
    val smallCat = Catalog(Seq(RelSchema("R", Seq("A" -> LongT, "B" -> LongT), Nil)))
    // R2 carries a range on its B: dropping it would change the semantics.
    val q = Query("rng", Seq(RelAtom("R", "R1"), RelAtom("R", "R2")),
      Seq(EqAttr(a("R1", "A"), a("R2", "A")), CmpConst(a("R2", "B"), CmpOp.Gt, "5")),
      Seq(a("R1", "A") -> "A"), distinct = true)
    val m = Minimize.minimize(q, smallCat)
    assert(m.aliases.contains("R2"))
  }

  test("constants must match for an atom to absorb another") {
    val smallCat = Catalog(Seq(RelSchema("R", Seq("A" -> LongT, "B" -> LongT), Nil)))
    val q = Query("cst", Seq(RelAtom("R", "R1"), RelAtom("R", "R2")),
      Seq(EqConst(a("R1", "A"), "1"), EqConst(a("R2", "A"), "2")),
      Seq(a("R1", "B") -> "b"), distinct = true)
    val m = Minimize.minimize(q, smallCat)
    assert(m.atoms.size == 2)
  }

  test("an atom with matching constant is absorbed") {
    val smallCat = Catalog(Seq(RelSchema("R", Seq("A" -> LongT, "B" -> LongT), Nil)))
    val q = Query("cst2", Seq(RelAtom("R", "R1"), RelAtom("R", "R2")),
      Seq(EqConst(a("R1", "A"), "1"), EqConst(a("R2", "A"), "1"),
          EqAttr(a("R1", "B"), a("R2", "B"))),
      Seq(a("R1", "B") -> "b"), distinct = true)
    val m = Minimize.minimize(q, smallCat)
    assert(m.atoms.size == 1)
  }

  test("rewritten query remaps projection attrs of dropped aliases") {
    val smallCat = Catalog(Seq(RelSchema("R", Seq("A" -> LongT, "B" -> LongT), Nil)))
    // Projection on R2.B, R2 redundant (R1 identical): remapped to R1.B.
    val q = Query("remap", Seq(RelAtom("R", "R1"), RelAtom("R", "R2")),
      Seq(EqAttr(a("R1", "A"), a("R2", "A")), EqAttr(a("R1", "B"), a("R2", "B"))),
      Seq(a("R2", "B") -> "b"), distinct = true)
    val m = Minimize.minimize(q, smallCat)
    assert(m.atoms.size == 1)
    val surviving = m.atoms.head.alias
    assert(m.query.projection == Seq(a(surviving, "B") -> "b"))
  }

  test("workload queries are all already minimal") {
    import repro.data.Workloads
    for (ds <- Workloads.all; wq <- ds.queries) {
      val m = Minimize.minimize(wq.q, ds.catalog)
      assert(m.dropped.isEmpty, s"${wq.q.name} should be minimal")
    }
  }
}
