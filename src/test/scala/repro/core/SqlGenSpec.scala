package repro.core

import org.scalatest.funsuite.AnyFunSuite
import repro.TestSchemas._
import repro.core.model.Attr
import repro.core.query._

/** The generated SQL must run identically on Spark (typed views) and
  * DuckDB (all-VARCHAR oracle tables): every comparison/aggregate is CAST.
  */
class SqlGenSpec extends AnyFunSuite {
  private def a(al: String, c: String) = Attr(al, c)

  test("numeric equality casts both to the column type") {
    val q = Query("t", Seq(RelAtom("SUPPLIER", "S")),
      Seq(EqConst(a("S", "suppkey"), "10")), Seq(a("S", "nationkey") -> "nk"))
    assert(SqlGen.toSql(q, cat).contains("CAST(S.suppkey AS BIGINT) = 10"))
  }

  test("string equality quotes and escapes the literal") {
    val q = Query("t", Seq(RelAtom("NATION", "N")),
      Seq(EqConst(a("N", "name"), "O'HARA")), Seq(a("N", "nationkey") -> "nk"))
    assert(SqlGen.toSql(q, cat).contains("N.name = 'O''HARA'"))
  }

  test("join predicates cast both sides") {
    assert(SqlGen.toSql(q1Prime, cat)
      .contains("CAST(PS.suppkey AS BIGINT) = CAST(S.suppkey AS BIGINT)"))
  }

  test("sums go through DECIMAL(18,2) so engines agree exactly") {
    assert(SqlGen.toSql(q1, cat)
      .contains("SUM(CAST(PS.supplycost AS DECIMAL(18,2))) AS total_cost"))
  }

  test("count(*) needs no cast") {
    val q = q1.copy(aggs = Seq(Agg(AggFn.Count, None, "cnt")))
    assert(SqlGen.toSql(q, cat).contains("COUNT(*) AS cnt"))
  }

  test("group-by lists the qualified attributes") {
    assert(SqlGen.toSql(q1, cat).endsWith("GROUP BY PS.suppkey"))
  }

  test("a global aggregate emits no GROUP BY clause") {
    val q = q1.copy(projection = Nil, groupBy = Some(Nil))
    assert(!SqlGen.toSql(q, cat).contains("GROUP BY"))
  }

  test("DISTINCT appears for set-semantics SPC queries") {
    assert(SqlGen.toSql(q1Prime, cat).startsWith("SELECT DISTINCT "))
  }

  test("date literals use the DATE keyword") {
    import repro.data.TpchLite
    val q = Query("t", Seq(RelAtom("orders", "o")),
      Seq(CmpConst(a("o", "o_orderdate"), CmpOp.Lt, "1995-03-15")),
      Seq(a("o", "o_orderkey") -> "ok"), distinct = true)
    val sql = SqlGen.toSql(q, TpchLite.catalog)
    assert(sql.contains("CAST(o.o_orderdate AS DATE) < DATE '1995-03-15'"))
  }

  test("FROM clause aliases every atom") {
    assert(SqlGen.toSql(q1, cat)
      .contains("FROM PARTSUPP AS PS, SUPPLIER AS S, NATION AS N"))
  }

  test("range operators pass through") {
    val q = Query("t", Seq(RelAtom("SUPPLIER", "S")),
      Seq(CmpConst(a("S", "suppkey"), CmpOp.Ne, "3")), Seq(a("S", "suppkey") -> "sk"))
    assert(SqlGen.toSql(q, cat).contains("CAST(S.suppkey AS BIGINT) <> 3"))
  }
}
