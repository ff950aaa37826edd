package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSchemas._
import repro.core.model.Attr
import repro.core.query._

class AttrClassesSpec extends AnyFunSuite {
  private def a(al: String, c: String) = Attr(al, c)
  private val cls = new AttrClasses(q1)

  test("EqAttr predicates merge classes") {
    assert(cls.rep(a("PS", "suppkey")) == cls.rep(a("S", "suppkey")))
    assert(cls.rep(a("S", "nationkey")) == cls.rep(a("N", "nationkey")))
  }

  test("unrelated attributes stay in distinct classes") {
    assert(cls.rep(a("PS", "suppkey")) != cls.rep(a("N", "nationkey")))
  }

  test("EqConst binds a constant to the whole class") {
    assert(cls.constOf(a("N", "name")).contains("GERMANY"))
    assert(cls.constOf(a("PS", "suppkey")).isEmpty)
  }

  test("members returns the full equality class") {
    assert(cls.members(a("S", "nationkey")) ==
      Set(a("S", "nationkey"), a("N", "nationkey")))
  }

  test("transitive chains collapse into one class") {
    val q = Query("chain", Seq(RelAtom("NATION", "A"), RelAtom("NATION", "B"),
                               RelAtom("NATION", "C")),
      Seq(EqAttr(a("A", "nationkey"), a("B", "nationkey")),
          EqAttr(a("B", "nationkey"), a("C", "nationkey")),
          EqConst(a("C", "nationkey"), "7")),
      Seq(a("A", "name") -> "n"), distinct = true)
    val c = new AttrClasses(q)
    assert(c.members(a("A", "nationkey")).size == 3)
    // The constant reaches every member through transitivity.
    assert(c.constOf(a("A", "nationkey")).contains("7"))
    assert(c.constOf(a("B", "nationkey")).contains("7"))
  }

  test("constants survive unions in either order") {
    val q = Query("order", Seq(RelAtom("NATION", "A"), RelAtom("NATION", "B")),
      Seq(EqConst(a("A", "nationkey"), "3"),
          EqAttr(a("A", "nationkey"), a("B", "nationkey"))),
      Seq(a("B", "name") -> "n"), distinct = true)
    val c = new AttrClasses(q)
    assert(c.constOf(a("B", "nationkey")).contains("3"))
  }

  test("range-predicate attributes are registered but unconstrained") {
    val q = Query("rng", Seq(RelAtom("SUPPLIER", "S")),
      Seq(CmpConst(a("S", "suppkey"), CmpOp.Gt, "5")), Seq(a("S", "suppkey") -> "sk"))
    val c = new AttrClasses(q)
    assert(c.allAttrs.contains(a("S", "suppkey")))
    assert(c.constOf(a("S", "suppkey")).isEmpty)
  }
}
