package repro

import repro.core.model._
import repro.core.model.ColType._
import repro.core.query._

/** Shared fixtures mirroring the paper's running example (Examples 1–7):
  * simplified TPC-H relations SUPPLIER(suppkey, nationkey),
  * PARTSUPP(partkey, suppkey, supplycost, availqty), NATION(nationkey, name)
  * and the BaaV schemas ~R₁ and ~R′₁.
  */
object TestSchemas {

  val cat: Catalog = Catalog(Seq(
    RelSchema("SUPPLIER", Seq("suppkey" -> LongT, "nationkey" -> IntT), pk = Seq("suppkey")),
    RelSchema("PARTSUPP", Seq("partkey" -> LongT, "suppkey" -> LongT,
                              "supplycost" -> DoubleT, "availqty" -> IntT),
              pk = Seq("partkey", "suppkey")),
    RelSchema("NATION", Seq("nationkey" -> IntT, "name" -> StringT), pk = Seq("nationkey")),
  ))

  val kvSupplier: KVSchema = KVSchema("~SUPPLIER", "SUPPLIER", Seq("nationkey"), Seq("suppkey"))
  val kvPartsupp: KVSchema = KVSchema("~PARTSUPP", "PARTSUPP", Seq("suppkey"),
                                      Seq("partkey", "supplycost", "availqty"))
  val kvNation: KVSchema = KVSchema("~NATION", "NATION", Seq("name"), Seq("nationkey"))

  /** ~R₁ of Example 1/3 — data preserving for R₁ (Example 4). */
  val r1: BaaVSchema = BaaVSchema(Seq(kvSupplier, kvPartsupp, kvNation))

  /** ~PARTSUPP′⟨suppkey, (partkey, supplycost)⟩ of Example 5. */
  val kvPartsuppPrime: KVSchema =
    KVSchema("~PARTSUPP'", "PARTSUPP", Seq("suppkey"), Seq("partkey", "supplycost"))

  /** ~R′₁ of Example 5 — not data preserving, but result preserving for Q′₁. */
  val r1Prime: BaaVSchema = BaaVSchema(Seq(kvSupplier, kvPartsuppPrime, kvNation))

  private def a(al: String, c: String) = Attr(al, c)

  /** Q₁ of Example 3 (simplified TPC-H q11). */
  val q1: Query = Query(
    name = "Q1",
    atoms = Seq(RelAtom("PARTSUPP", "PS"), RelAtom("SUPPLIER", "S"), RelAtom("NATION", "N")),
    preds = Seq(
      EqAttr(a("PS", "suppkey"), a("S", "suppkey")),
      EqAttr(a("S", "nationkey"), a("N", "nationkey")),
      EqConst(a("N", "name"), "GERMANY")),
    projection = Seq(a("PS", "suppkey") -> "suppkey"),
    groupBy = Some(Seq(a("PS", "suppkey"))),
    aggs = Seq(Agg(AggFn.Sum, Some(a("PS", "supplycost")), "total_cost")),
  )

  /** Q′₁ of Example 5 — Q₁ without the final group-by. */
  val q1Prime: Query = q1.copy(
    name = "Q1'",
    projection = Seq(a("PS", "suppkey") -> "suppkey", a("PS", "supplycost") -> "supplycost"),
    groupBy = None, aggs = Nil, distinct = true,
  )

  /** Q₂ of Example 5: Q′₁ with a redundant self-join PS′ on availqty. */
  val q2: Query = q1Prime.copy(
    name = "Q2",
    atoms = q1Prime.atoms :+ RelAtom("PARTSUPP", "PS2"),
    preds = q1Prime.preds :+ EqAttr(a("PS", "availqty"), a("PS2", "availqty")),
  )
}
