package repro.kv

import org.apache.spark.sql.functions._
import org.apache.spark.sql.types.{DateType, LongType}
import org.apache.spark.unsafe.types.UTF8String
import repro.{ExampleStores, SparkSpec, TestSchemas}
import repro.core.model.KVSchema

class BaaVStoreSpec extends SparkSpec {
  private lazy val s = spark

  private lazy val partsuppDf = {
    import s.implicits._
    Seq(
      (1L, 10L, 5.0, 3), (2L, 10L, 7.0, 4), (3L, 10L, 9.0, 5),
      (1L, 20L, 2.0, 1), (4L, 20L, 3.0, 2),
      (5L, 30L, 1.0, 9),
    ).toDF("partkey", "suppkey", "supplycost", "availqty")
  }
  private lazy val inst = KVInstance.fromRelation(partsuppDf, TestSchemas.kvPartsupp)

  /** The shared example stores with PARTSUPP replaced by `partsuppDf`. */
  private lazy val store = ExampleStores.baavWith("PARTSUPP", partsuppDf)

  test("fromRelation groups tuples into keyed blocks") {
    assert(inst.numBlocks == 3)
    assert(inst.numTuples == 6)
  }

  test("degree is the maximum block size") {
    assert(inst.degree == 3)
  }

  test("cells counts key cells per block and value cells per tuple") {
    assert(inst.cells == 3 * 1 + 6 * 3)
  }

  test("flatten returns the relational version (bag)") {
    val back = inst.flatten
    assert(back.count() == 6)
    assert(back.columns.toSeq == Seq("suppkey", "partkey", "supplycost", "availqty"))
    val orig = partsuppDf.select("suppkey", "partkey", "supplycost", "availqty")
    assert(back.exceptAll(orig).isEmpty && orig.exceptAll(back).isEmpty)
  }

  test("blocks preserve bag multiplicity") {
    import s.implicits._
    val dup = Seq((1L, 10L, 5.0, 3), (1L, 10L, 5.0, 3))
      .toDF("partkey", "suppkey", "supplycost", "availqty")
    val i = KVInstance.fromRelation(dup, TestSchemas.kvPartsupp)
    assert(i.numTuples == 2 && i.numBlocks == 1 && i.degree == 2)
  }

  test("oversized blocks split into segments but stay one logical block") {
    val split = KVInstance.fromRelation(partsuppDf, TestSchemas.kvPartsupp, maxBlockSize = Some(2))
    assert(split.blocked.count() == 4)   // physical segments: 2+1+1
    assert(split.numBlocks == 3)          // logical keys
    assert(split.degree == 3)             // logical degree unchanged
    val back = split.flatten
    assert(back.exceptAll(inst.flatten).isEmpty && inst.flatten.exceptAll(back).isEmpty)
  }

  test("the key index returns every segment stored under a key, and none for a missing key") {
    val split = KVInstance.fromRelation(partsuppDf, TestSchemas.kvPartsupp, maxBlockSize = Some(2))
    val index = split.blocksByKey
    assert(index.size == 4)
    val seg10 = index.get(Seq(10L)).get
    assert(seg10.map(_.size).sorted == Seq(1, 2))
    assert(seg10.flatten.map(_.mkString(",")).sorted == Seq("1,5.0,3", "2,7.0,4", "3,9.0,5"))
    assert(index.get(Seq(30L)).contains(Seq(Seq(Vector(5L, 1.0, 9)))))
    assert(index.get(Seq(40L)).isEmpty)
  }

  test("the key index decodes string keys, dates and nulls as internal values") {
    import s.implicits._
    val (d1, d2) = (java.sql.Date.valueOf("2020-01-02"), java.sql.Date.valueOf("2021-03-04"))
    val df = Seq(("a", d1, Option(1L)), ("a", d2, None), ("a", d1, Option(1L)), ("b", d2, Option(2L)))
      .toDF("k", "d", "n")
    val i = KVInstance.fromRelation(df, KVSchema("~K", "K", Seq("k"), Seq("d", "n")), maxBlockSize = Some(2))
    // Each key's segments as the internal rows of `blocked` hold them.
    val stored: Map[Seq[Any], Seq[Seq[Vector[Any]]]] =
      i.blocked.queryExecution.executedPlan.executeCollect().toSeq.map { r =>
        val block = r.getArray(1)
        Seq[Any](r.getUTF8String(0)) -> (0 until block.numElements()).map(j =>
          block.getStruct(j, 2).toSeq(Seq(DateType, LongType)).toVector)
      }.groupMap(_._1)(_._2)
    def bag[A](xs: Seq[A]): Map[A, Int] = xs.groupMapReduce(identity)(_ => 1)(_ + _)
    def segmentBags(segments: Seq[Seq[Vector[Any]]]) = bag(segments.map(bag))
    val (a, b, c) = (UTF8String.fromString("a"), UTF8String.fromString("b"), UTF8String.fromString("c"))
    assert(stored.keySet == Set(Seq(a), Seq(b)))
    for ((k, segments) <- stored) assert(segmentBags(i.blocksByKey.get(k).get) == segmentBags(segments))
    // Key a's three tuples span two segments; its duplicate tuple and its
    // null stay, and dates are days since the epoch.
    val aTuples = i.blocksByKey.get(Seq(a)).get
    assert(aTuples.size == 2 && aTuples.flatten.size == 3)
    val (day1, day2) = (d1.toLocalDate.toEpochDay.toInt, d2.toLocalDate.toEpochDay.toInt)
    assert(aTuples.flatten.count(_ == Vector(day1, 1L)) == 2)
    assert(aTuples.flatten.contains(Vector[Any](day2, null)))
    assert(aTuples.flatten.forall(_.head.isInstanceOf[Int]))
    assert(i.blocksByKey.get(Seq(c)).isEmpty)
  }

  test("fromRelation rejects empty value schemas") {
    assertThrows[IllegalArgumentException](
      KVInstance.fromRelation(partsuppDf, KVSchema("x", "PARTSUPP", Seq("suppkey"), Nil)))
  }

  test("BaaVStore.build maps every KV schema of the BaaV schema") {
    val store = ExampleStores.baav
    assert(store.instances.keySet == Set("~SUPPLIER", "~PARTSUPP", "~NATION"))
    assert(store("~SUPPLIER").degree == 2)
    assert(store.degree == 3)
  }

  test("insert rebuilds only affected blocks and matches a full rebuild") {
    import s.implicits._
    val delta = Seq((9L, 10L, 11.0, 7), (6L, 40L, 2.5, 2))
      .toDF("partkey", "suppkey", "supplycost", "availqty")
    val updated = store.insert("PARTSUPP", delta)("~PARTSUPP")
    val rebuilt = KVInstance.fromRelation(partsuppDf.unionByName(delta), TestSchemas.kvPartsupp)
    assert(updated.flatten.exceptAll(rebuilt.flatten).isEmpty)
    assert(rebuilt.flatten.exceptAll(updated.flatten).isEmpty)
    assert(updated.numBlocks == 4 && updated.degree == 4)
  }

  test("delete removes exactly the delta tuples (bag difference)") {
    import s.implicits._
    val delta = Seq((1L, 10L, 5.0, 3), (5L, 30L, 1.0, 9))
      .toDF("partkey", "suppkey", "supplycost", "availqty")
    val updated = store.delete("PARTSUPP", delta)("~PARTSUPP")
    assert(updated.numTuples == 4)
    assert(updated.numBlocks == 2) // suppkey 30's only tuple is gone
    val expect = partsuppDf.exceptAll(delta)
    assert(updated.flatten.select("partkey", "suppkey", "supplycost", "availqty")
      .exceptAll(expect).isEmpty)
  }

  test("updates leave instances of other relations untouched") {
    import s.implicits._
    val delta = Seq((9L, 10L, 11.0, 7)).toDF("partkey", "suppkey", "supplycost", "availqty")
    val updated = store.insert("PARTSUPP", delta)
    assert(updated("~NATION").blocked eq store("~NATION").blocked)
  }

  test("degree of an empty instance is zero") {
    val empty = KVInstance.fromRelation(partsuppDf.filter(lit(false)), TestSchemas.kvPartsupp)
    assert(empty.degree == 0 && empty.numBlocks == 0 && empty.cells == 0)
  }

  test("an empty instance, built empty or emptied by delete, has no blocks, no tuples and degree 0") {
    val empty = KVInstance.fromRelation(partsuppDf.filter(lit(false)), TestSchemas.kvPartsupp)
    val store = new BaaVStore(repro.core.model.BaaVSchema(Seq(TestSchemas.kvPartsupp)), Map("~PARTSUPP" -> inst))
    val emptied = store.delete("PARTSUPP", partsuppDf)("~PARTSUPP")
    for (i <- Seq(empty, emptied)) assert((i.numBlocks, i.numTuples, i.degree) == (0L, 0L, 0L))
    assert(emptied.blocksByKey.get(Seq(10L)).isEmpty)
  }
}
