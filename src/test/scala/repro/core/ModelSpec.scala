package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSchemas._
import repro.core.model._
import repro.core.model.ColType._
import repro.core.query._

class ModelSpec extends AnyFunSuite {

  test("RelSchema exposes attrs in declaration order") {
    assert(cat("PARTSUPP").attrs == Seq("partkey", "suppkey", "supplycost", "availqty"))
  }

  test("RelSchema.typeOf resolves column types") {
    assert(cat("PARTSUPP").typeOf("supplycost") == DoubleT)
    assert(cat("NATION").typeOf("name") == StringT)
  }

  test("RelSchema.typeOf rejects unknown columns") {
    assertThrows[NoSuchElementException](cat("NATION").typeOf("nope"))
  }

  test("RelSchema rejects pk outside the columns") {
    assertThrows[IllegalArgumentException](
      RelSchema("X", Seq("a" -> LongT), pk = Seq("b")))
  }

  test("Catalog rejects unknown relations") {
    assertThrows[NoSuchElementException](cat("NOPE"))
  }

  test("KVSchema attrs = key ++ value") {
    assert(kvPartsupp.attrs == Seq("suppkey", "partkey", "supplycost", "availqty"))
  }

  test("KVSchema requires a non-empty key") {
    assertThrows[IllegalArgumentException](KVSchema("x", "NATION", Nil, Seq("name")))
  }

  test("KVSchema rejects duplicate attributes") {
    assertThrows[IllegalArgumentException](
      KVSchema("x", "NATION", Seq("name"), Seq("name")))
  }

  test("KVSchema.pk falls back to the relation pk when contained") {
    assert(kvPartsupp.pk(cat) == Seq("partkey", "suppkey"))
  }

  test("KVSchema.pk falls back to the key when the relation pk is not contained") {
    assert(kvNation.pk(cat) == Seq("nationkey")) // NATION pk contained in attrs
    val noPk = KVSchema("x", "PARTSUPP", Seq("suppkey"), Seq("supplycost"))
    assert(noPk.pk(cat) == Seq("suppkey")) // partkey missing -> key fallback
  }

  test("KVSchema.pk honors an explicit declaration") {
    val kv = KVSchema("x", "PARTSUPP", Seq("suppkey"), Seq("partkey", "supplycost"),
                      pkOpt = Some(Seq("partkey", "suppkey")))
    assert(kv.pk(cat) == Seq("partkey", "suppkey"))
  }

  test("BaaVSchema.forRel filters by base relation") {
    assert(r1.forRel("PARTSUPP").map(_.name) == Seq("~PARTSUPP"))
    assert(r1Prime.forRel("PARTSUPP").map(_.name) == Seq("~PARTSUPP'"))
  }

  test("BaaVSchema rejects duplicate names") {
    assertThrows[IllegalArgumentException](BaaVSchema(Seq(kvNation, kvNation)))
  }

  test("Attr field name is alias__col") {
    assert(Attr("N", "name").field == "N__name")
    assert(Attr("N", "name").qname == "N.name")
  }

  test("Qcs requires X within Z and non-empty") {
    assertThrows[IllegalArgumentException](Qcs("R", Set("a"), Set("b")))
    assertThrows[IllegalArgumentException](Qcs("R", Set("a"), Set.empty))
  }

  test("Query.attrsOf collects X^Q_R from preds and projection") {
    assert(q1.attrsOf("N") == Set(Attr("N", "nationkey"), Attr("N", "name")))
    assert(q1.attrsOf("PS") == Set(Attr("PS", "suppkey"), Attr("PS", "supplycost")))
  }

  test("Query rejects duplicate aliases") {
    assertThrows[IllegalArgumentException](
      q1.copy(atoms = Seq(RelAtom("NATION", "N"), RelAtom("NATION", "N"))))
  }

  test("Query group-by projection must match group-by attrs") {
    assertThrows[IllegalArgumentException](
      q1.copy(projection = Seq(Attr("S", "suppkey") -> "x")))
  }

  test("Agg validates function names") {
    assertThrows[IllegalArgumentException](Agg(AggFn.Sum, None, "x"))
  }
}
