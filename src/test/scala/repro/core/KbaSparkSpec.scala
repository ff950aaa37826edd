package repro.core

import org.scalacheck.Gen
import repro.{PropHelpers, SparkSpec}
import repro.core.algebra.RefKba
import repro.core.model._
import repro.core.model.ColType.LongT
import repro.core.planner.{KConst, KExtend, KJoin, KPlan}
import repro.core.query._
import repro.kv.{BaaVStore, KVInstance, TaaVStore}
import repro.zidian.Zidian

/** The executor's KBA operators agree with the executable reference
  * semantics: extension `∝` on both execution paths and join `⋈` on the
  * Spark path, each run through [[Zidian]] over generated stores of `R(A,B)`
  * keyed `⟨A;B⟩` and `S(B,C)` keyed `⟨B;C⟩`. Values come from a 3-value
  * domain, so keys collide, blocks hold duplicate tuples and frontier keys
  * go missing.
  */
class KbaSparkSpec extends SparkSpec with PropHelpers {
  private lazy val s = spark

  private type Rows = Seq[(Long, Long)]

  private val cat = Catalog(Seq(
    RelSchema("R", Seq("A" -> LongT, "B" -> LongT), pk = Nil),
    RelSchema("S", Seq("B" -> LongT, "C" -> LongT), pk = Nil)))
  private val rKv = KVSchema("R_by_A", "R", Seq("A"), Seq("B"))
  private val sKv = KVSchema("S_by_B", "S", Seq("B"), Seq("C"))
  private val schema = BaaVSchema(Seq(rKv, sKv))

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

  /** `r.A = c, r.B = s.B`: the bounded chain `{A: c} ∝ ~R ∝ ~S`. */
  private def chain(c: Long) = Query("chain", atoms, Seq(EqConst(Attr("r", "A"), c.toString), rsJoin), out)

  /** `r.B = s.B` with no constant: the two instances are scanned and joined. */
  private val join = Query("join", atoms, Seq(rsJoin), out)

  /** `{A: c} ∝ ~R ∝ ~S` in the reference semantics. */
  private def refChain(rs: Rows, ss: Rows, c: Long): Seq[String] = {
    val seed = RefKba.Inst(Seq("A"), Nil, Map(Seq(c.toString) -> Seq(Nil)))
    canon(RefKba.extend(RefKba.extend(seed, ref(rs, rKv)), ref(ss, sKv)).flatten)
  }

  /** The plan body and the answer of `q` over a store of `rs` and `ss`, on
    * the in-process path or (degree bound 0) as Spark jobs.
    */
  private def answer(q: Query, rs: Rows, ss: Rows, inProcess: Boolean): (KPlan, Seq[String]) = {
    val data = Map("R" -> df(rs, rKv), "S" -> df(ss, sKv))
    val store = BaaVStore.build(schema, data, materialize = false)
    val z = new Zidian(cat, schema, boundedDegree = if (inProcess) 100 else 0)
    val ans = z.answer(q, store, new TaaVStore(cat, data), spark)
    try {
      assert(ans.decision.bounded.contains(inProcess), s"${q.name}: bounded must be $inProcess")
      val rows = ans.df.collect().toSeq.map(r => out.map(_._2).zip(r.toSeq.map(String.valueOf)).toMap)
      (ans.plan.body, canon(rows))
    } finally {
      ans.executor.cleanup()
      store.instances.values.foreach(_.blocked.unpersist())
    }
  }

  private def isChain(p: KPlan): Boolean = PartialFunction.cond(p) {
    case KExtend(KExtend(KConst(_), "r", `rKv`, _), "s", `sKv`, _) => true
  }

  /** The cases must reach both a hit and a miss and a bag with a repeat. */
  private def assertCovers(wants: Seq[Seq[String]]): Unit =
    assert(wants.exists(_.isEmpty) && wants.exists(w => w.distinct.size < w.size),
           s"the generated cases miss an edge: $wants")

  private val cases = Gen.zip(rowsGen, rowsGen, smallVal)

  for ((path, inProcess) <- Seq("in-process" -> true, "Spark" -> false))
    test(s"$path extension matches the reference semantics") {
      val wants = Seq.newBuilder[Seq[String]]
      forAllN(cases, n = 8) { case (rs, ss, c) =>
        val (body, got) = answer(chain(c), rs, ss, inProcess)
        assert(isChain(body), body)
        val want = refChain(rs, ss, c)
        assert(got == want, s"R=$rs S=$ss A=$c")
        wants += want
      }
      assertCovers(wants.result())
    }

  test("Spark join matches the reference semantics") {
    val wants = Seq.newBuilder[Seq[String]]
    forAllN2(rowsGen, rowsGen, n = 8) { (rs, ss) =>
      val (body, got) = answer(join, rs, ss, inProcess = false)
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
