package repro.zidian

import repro.{SparkSpec, TwoPaths}
import repro.benchutil.Harness
import repro.core.model.Attr
import repro.core.query.{CmpConst, CmpOp, EqConst}
import repro.data.Workloads

/** Middleware-level guarantees: M1/M2 decisions match the paper's classes,
  * scan-free evaluation scans nothing (Prop. 7a), and bounded queries
  * access a constant amount of data as |D| grows (Prop. 7b / Exp-2).
  */
class ZidianSpec extends SparkSpec {
  private val Sf = 0.002

  private lazy val envs = Workloads.all.map(ds => ds.name -> SparkSpec.env(ds, Sf)).toMap

  for (ds <- Workloads.all) {
    lazy val env = envs(ds.name)

    test(s"${ds.name}: decisions match the paper's scan-free/bounded classes") {
      for (wq <- ds.queries) {
        val (d, plan) = env.zidian.decide(wq.q, Some(env.baav))
        assert(d.resultPreserving, s"${wq.q.name} must be result preserving")
        assert(d.scanFree == wq.scanFree, s"${wq.q.name} scanFree")
        if (ds.name == "TPC-H") {
          // Synthetic TPC-H degrees at tiny SF do not exceed c the way real
          // TPC-H does (§9's observation); assert the checker's contract.
          val expect = plan.scanFree &&
            plan.usedInstances.forall(n => env.baav(n).degree <= env.zidian.boundedDegree)
          assert(d.bounded.contains(expect), s"${wq.q.name} bounded contract")
        } else {
          assert(d.bounded.contains(wq.bounded),
                 s"${wq.q.name} bounded, plan=${plan.aliasModes}")
        }
      }
    }

    test(s"${ds.name}: scan-free queries incur zero scans, others at least one") {
      for (wq <- ds.queries) {
        val ans = env.zidian.answer(wq.q, env.baav, env.taav, spark)
        ans.df.count()
        if (wq.scanFree) assert(ans.metrics.scans == 0, wq.q.name)
        else assert(ans.metrics.scans >= 1, wq.q.name)
      }
    }

    test(s"${ds.name}: Zidian always accesses no more data than the baseline") {
      for (wq <- ds.queries) {
        val (b, z) = Harness.runBoth(env, wq)
        assert(z.values <= b.values, s"${wq.q.name}: ${z.values} > ${b.values}")
        assert(z.gets <= b.gets, s"${wq.q.name}")
      }
    }
  }

  test("bounded MOT queries access the same amount of data when |D| doubles (Exp-2)") {
    val env2 = SparkSpec.env(Workloads.mot, Sf * 2)
    for (wq <- Workloads.mot.queries if wq.bounded) {
      val small = env2 // larger store
      val a1 = envs("MOT").zidian.answer(wq.q, envs("MOT").baav, envs("MOT").taav, spark)
      a1.df.count()
      val a2 = small.zidian.answer(wq.q, small.baav, small.taav, spark)
      a2.df.count()
      assert(a1.metrics.gets == a2.metrics.gets, s"${wq.q.name} gets")
      assert(a1.metrics.valuesAccessed == a2.metrics.valuesAccessed, s"${wq.q.name} #data")
    }
  }

  test("non-scan-free MOT queries access more data when |D| doubles") {
    val env2 = SparkSpec.env(Workloads.mot, Sf * 2)
    val wq = Workloads.mot.queries.find(_.q.name == "mot_q7").get
    val a1 = envs("MOT").zidian.answer(wq.q, envs("MOT").baav, envs("MOT").taav, spark)
    a1.df.count()
    val a2 = env2.zidian.answer(wq.q, env2.baav, env2.taav, spark)
    a2.df.count()
    assert(a2.metrics.valuesAccessed > a1.metrics.valuesAccessed)
  }

  test("boundedness is rejected when a used instance degree exceeds c") {
    val env = envs("MOT")
    val tight = new Zidian(Workloads.mot.catalog, Workloads.mot.baavSchema, boundedDegree = 1)
    val wq = Workloads.mot.queries.head // mot_q1 uses test_by_vid (degree 3)
    val (d, _) = tight.decide(wq.q, Some(env.baav))
    assert(d.scanFree)
    assert(d.bounded.contains(false))
  }

  for (name <- Seq("MOT", "AIRCA")) {
    test(s"$name: bounded q1-q6 give the baseline's answers, column types and no scan") {
      val env = envs(name)
      val bounded = env.ds.queries.filter(_.bounded)
      assert(bounded.size == 6)
      for (wq <- bounded) TwoPaths.check(env.zidian, wq.q, env.baav, env.taav, spark)
    }
  }

  test("a constant its column type cannot hold is rejected before execution, on both paths") {
    val env = envs("MOT")
    def template(n: String) = Workloads.mot.queries.find(_.q.name == n).get.q
    val (q1, q7) = (template("mot_q1"), template("mot_q7"))
    // mot_q1 runs in process; mot_q7, with a range predicate that seeds
    // no lookup, scans and runs as Spark jobs.
    val bad = Seq(
      q1.copy(preds = q1.preds.map {
        case EqConst(a, _) => EqConst(a, "abc")
        case p             => p
      }) -> Seq("v.v_id", "'abc'", "BIGINT"),
      q7.copy(preds = Seq(CmpConst(Attr("t", "t_year"), CmpOp.Ge, "abc"))) -> Seq("t.t_year", "'abc'", "INT"))
    for ((q, parts) <- bad) {
      val e = intercept[IllegalArgumentException](env.zidian.answer(q, env.baav, env.taav, spark))
      for (part <- q.name +: parts) assert(e.getMessage.contains(part), e.getMessage)
    }
  }

  test("an unknown alias or column is rejected before planning, on both paths") {
    val env = envs("MOT")
    // mot_q1 runs in process; mot_q7 scans and runs as Spark jobs.
    for ((name, from) <- Seq("mot_q1" -> Seq("vehicle v", "test t"), "mot_q7" -> Seq("test t"))) {
      val q = Workloads.mot.queries.find(_.q.name == name).get.q
      val unknownCol = q.copy(projection = Seq(Attr("t", "t_verdict") -> "result"),
                              groupBy = Some(Seq(Attr("t", "t_verdict"))))
      val unknownAlias = q.copy(preds = q.preds :+ EqConst(Attr("x", "v_id"), "101"))
      val col = intercept[IllegalArgumentException](env.zidian.answer(unknownCol, env.baav, env.taav, spark))
      for (part <- Seq(name, "t.t_verdict", "test")) assert(col.getMessage.contains(part), col.getMessage)
      val alias = intercept[IllegalArgumentException](env.zidian.decide(unknownAlias, Some(env.baav)))
      for (part <- name +: "x.v_id" +: from) assert(alias.getMessage.contains(part), alias.getMessage)
    }
  }
}
