package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec}
import repro.core.algebra.RefKba
import repro.core.model._
import repro.core.model.ColType.LongT
import repro.core.planner.{KConst, KExtend, KJoin, KPlan, KScanKV, KScanRel}
import repro.core.query._
import repro.kv.{BaaVStore, KVInstance, TaaVStore}
import repro.zidian.Zidian

/** The executor's KBA operators agree with the executable reference
  * semantics, each run through [[Zidian]] over generated instances:
  * extension `∝` in a scan-free plan (run in process) and in a plan that
  * joins it to a TaaV scan, the KV scans joined on a primary key that
  * reconstruct a relation (run as Spark jobs) against `∝`, and join `⋈`
  * of two scans.
  * The relations are `R(A,B)` keyed `⟨A;B⟩`, `S(B,C)` keyed `⟨B;C⟩` and
  * `T(A,B,C)` keyed `⟨A;B⟩` and `⟨A;C⟩`. Values come from a 3-value domain,
  * so keys collide, blocks hold duplicate tuples and frontier keys go
  * missing. Each instance is built from rows of its own, so `T`'s two
  * instances need not agree and a scanned key can miss too.
  */
class KbaSparkSpec extends SparkSpec with PropHelpers {
  private lazy val s = spark

  private type Rows = Seq[(Long, Long)]

  private val cat = Catalog(Seq(
    RelSchema("R", Seq("A" -> LongT, "B" -> LongT), pk = Nil),
    RelSchema("S", Seq("B" -> LongT, "C" -> LongT), pk = Nil),
    RelSchema("T", Seq("A" -> LongT, "B" -> LongT, "C" -> LongT), pk = Seq("A"))))
  private val rKv = KVSchema("R_by_A", "R", Seq("A"), Seq("B"))
  private val sKv = KVSchema("S_by_B", "S", Seq("B"), Seq("C"))
  private val tbKv = KVSchema("T_B_by_A", "T", Seq("A"), Seq("B"))
  private val tcKv = KVSchema("T_C_by_A", "T", Seq("A"), Seq("C"))

  private val smallVal: Gen[Long] = Gen.chooseNum(1L, 3L)
  private val rowsGen: Gen[Rows] =
    for {
      k  <- Gen.chooseNum(1, 8)
      rs <- Gen.listOfN(k, Gen.zip(smallVal, smallVal))
    } yield rs

  private def df(rows: Rows, kv: KVSchema) = {
    import s.implicits._
    rows.toDF(kv.attrs: _*)
  }

  private def ref(rows: Rows, kv: KVSchema): RefKba.Inst =
    RefKba.fromRows(rows.map { case (x, y) => kv.attrs.zip(Seq(x, y).map(_.toString)).toMap },
                    kv.key, kv.value)

  /** A bag of `A,B,C` rows, as a sorted list. */
  private def canon(rows: Seq[Map[String, String]]): Seq[String] =
    rows.map(r => Seq("A", "B", "C").map(r).mkString(",")).sorted

  private val atoms = Seq(RelAtom("R", "r"), RelAtom("S", "s"))
  private val out = Seq(Attr("r", "A") -> "A", Attr("r", "B") -> "B", Attr("s", "C") -> "C")
  private val rsJoin = EqAttr(Attr("r", "B"), Attr("s", "B"))

  /** `r.A = c, r.B = s.B`: the chain `{A: c} ∝ ~R ∝ ~S`, or `{A: c} ∝ ~R`
    * joined to a scan of `S` when `S` has no instance.
    */
  private def chain(c: Long) = Query("chain", atoms, Seq(EqConst(Attr("r", "A"), c.toString), rsJoin), out)

  /** `r.B = s.B` with no constant: the two instances are scanned and joined. */
  private val join = Query("join", atoms, Seq(rsJoin), out)

  /** All of `T`, which no instance covers: scans of `~T⟨A;B⟩` and
    * `~T⟨A;C⟩` joined on the primary key, which is `~T⟨A;B⟩ ∝ ~T⟨A;C⟩`.
    */
  private val whole = Query("whole", Seq(RelAtom("T", "t")), Nil,
                            Seq("A", "B", "C").map(c => Attr("t", c) -> c))

  private def seed(c: Long) = RefKba.Inst(Seq("A"), Nil, Map(Seq(c.toString) -> Seq(Nil)))

  /** The plan body and the answer of `q` over a store of `instances`, each
    * built from its own rows, and a TaaV store of `relations`. The plan is
    * scan-free, so run in process, exactly when `scanFree` is.
    */
  private def answer(q: Query, instances: Seq[(KVSchema, Rows)], relations: Map[String, (Rows, KVSchema)],
                     scanFree: Boolean): (KPlan, Seq[String]) = {
    val schema = BaaVSchema(instances.map(_._1))
    val store = new BaaVStore(schema, instances.map { case (kv, rs) =>
      kv.name -> KVInstance.fromRelation(df(rs, kv), kv) }.toMap)
    val taav = new TaaVStore(cat, relations.map { case (rel, (rs, kv)) => rel -> df(rs, kv) })
    val ans = new Zidian(cat, schema).answer(q, store, taav, spark)
    assert(ans.plan.scanFree == scanFree, s"${q.name}: scanFree must be $scanFree")
    val rows = ans.df.collect().toSeq.map(r => q.projection.map(_._2).zip(r.toSeq.map(String.valueOf)).toMap)
    (ans.plan.body, canon(rows))
  }

  /** The cases must reach both a hit and a miss and a bag with a repeat. */
  private def assertCovers(wants: Seq[Seq[String]]): Unit =
    assert(wants.exists(_.isEmpty) && wants.exists(w => w.distinct.size < w.size),
           s"the generated cases miss an edge: $wants")

  private val cases = Gen.zip(rowsGen, rowsGen, smallVal)

  test("in-process extension matches the reference semantics") {
    val wants = Seq.newBuilder[Seq[String]]
    forAllN(cases, n = 8) { case (rs, ss, c) =>
      val (body, got) = answer(chain(c), Seq(rKv -> rs, sKv -> ss), Map.empty, scanFree = true)
      assert(PartialFunction.cond(body) {
        case KExtend(KExtend(KConst(_), "r", `rKv`, _), "s", `sKv`, _) => true
      }, body)
      val want = canon(RefKba.extend(RefKba.extend(seed(c), ref(rs, rKv)), ref(ss, sKv)).flatten)
      assert(got == want, s"R=$rs S=$ss A=$c")
      wants += want
    }
    assertCovers(wants.result())
  }

  test("Spark extension matches the reference semantics") {
    val wants = Seq.newBuilder[Seq[String]]
    forAllN2(rowsGen, rowsGen, n = 8) { (bs, cs) =>
      val (body, got) = answer(whole, Seq(tbKv -> bs, tcKv -> cs), Map.empty, scanFree = false)
      assert(body == KJoin(KScanKV("t", tbKv), KScanKV("t", tcKv), Nil), body)
      val want = canon(RefKba.extend(ref(bs, tbKv), ref(cs, tcKv)).flatten)
      assert(got == want, s"T⟨A;B⟩=$bs T⟨A;C⟩=$cs")
      wants += want
    }
    assertCovers(wants.result())
  }

  test("an extension joined to a TaaV scan matches the reference semantics") {
    val wants = Seq.newBuilder[Seq[String]]
    forAllN(cases, n = 8) { case (rs, ss, c) =>
      val (body, got) = answer(chain(c), Seq(rKv -> rs), Map("S" -> (ss, sKv)), scanFree = false)
      assert(PartialFunction.cond(body) {
        case KJoin(KExtend(KConst(_), "r", `rKv`, _), KScanRel("s", "S", _), Seq(_)) => true
      }, body)
      val want = canon(RefKba.join(RefKba.extend(seed(c), ref(rs, rKv)), ref(ss, sKv), Seq("B")).flatten)
      assert(got == want, s"R=$rs S=$ss A=$c")
      wants += want
    }
    assertCovers(wants.result())
  }

  test("Spark join matches the reference semantics") {
    val wants = Seq.newBuilder[Seq[String]]
    forAllN2(rowsGen, rowsGen, n = 8) { (rs, ss) =>
      val (body, got) = answer(join, Seq(rKv -> rs, sKv -> ss), Map.empty, scanFree = false)
      assert(PartialFunction.cond(body) { case KJoin(_, _, Seq(_)) => true }, body)
      val want = canon(RefKba.join(ref(rs, rKv), ref(ss, sKv), Seq("B")).flatten)
      assert(got == want, s"R=$rs S=$ss")
      wants += want
    }
    assertCovers(wants.result())
  }

  test("Spark degree matches the reference degree") {
    forAllN(rowsGen, n = 4) { rs =>
      assert(KVInstance.fromRelation(df(rs, rKv), rKv).degree == ref(rs, rKv).degree)
    }
  }
}
