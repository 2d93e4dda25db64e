package repro.core

import org.scalatest.funsuite.AnyFunSuite
import scala.util.Random

class TextSpec extends AnyFunSuite {

  test("tokens: lowercases and splits on non-alphanumerics") {
    assert(Text.tokens("Hello, World! 42") == Set("hello", "world", "42"))
  }
  test("tokens: independent of the default locale") {
    val saved = java.util.Locale.getDefault
    try {
      java.util.Locale.setDefault(java.util.Locale.forLanguageTag("tr"))
      assert(Text.tokens("TITLE") == Set("title")) // not {t, tle} via a dotless ı
    } finally java.util.Locale.setDefault(saved)
  }
  test("tokens: null and empty yield empty set") {
    assert(Text.tokens(null) == Set.empty)
    assert(Text.tokens("") == Set.empty)
    assert(Text.tokens(" ,;- ") == Set.empty)
  }
  test("tokens: deduplicates repeated tokens") {
    assert(Text.tokens("a b a B A") == Set("a", "b"))
  }
  test("tokens: keeps digit runs and mixed alnum") {
    assert(Text.tokens("w3t12 2021") == Set("w3t12", "2021"))
  }
  test("jaccard: identical sets is 1") {
    assert(Text.jaccard(Set("a", "b"), Set("a", "b")) == 1.0)
  }
  test("jaccard: disjoint sets is 0") {
    assert(Text.jaccard(Set("a"), Set("b")) == 0.0)
  }
  test("jaccard: both empty is 1 (keeps jdist a metric)") {
    assert(Text.jaccard(Set.empty, Set.empty) == 1.0)
  }
  test("jaccard: one empty is 0") {
    assert(Text.jaccard(Set.empty, Set("a")) == 0.0)
  }
  test("jaccard: half overlap") {
    assert(Text.jaccard(Set("a", "b"), Set("b", "c")) == 1.0 / 3.0)
  }
  test("jaccard is symmetric (randomized)") {
    val rnd = new Random(1)
    (1 to 200).foreach { _ =>
      val a = Set.fill(rnd.nextInt(6))(s"t${rnd.nextInt(8)}")
      val b = Set.fill(rnd.nextInt(6))(s"t${rnd.nextInt(8)}")
      assert(Text.jaccard(a, b) == Text.jaccard(b, a))
    }
  }
  test("jaccard is within [0, 1] (randomized)") {
    val rnd = new Random(2)
    (1 to 200).foreach { _ =>
      val a = Set.fill(rnd.nextInt(8))(s"t${rnd.nextInt(10)}")
      val b = Set.fill(rnd.nextInt(8))(s"t${rnd.nextInt(10)}")
      val j = Text.jaccard(a, b)
      assert(j >= 0.0 && j <= 1.0)
    }
  }
  test("jdist satisfies the triangle inequality (randomized)") {
    val rnd = new Random(3)
    (1 to 300).foreach { _ =>
      def mk() = Set.fill(1 + rnd.nextInt(6))(s"t${rnd.nextInt(8)}")
      val (a, b, c) = (mk(), mk(), mk())
      assert(Text.jdist(a, c) <= Text.jdist(a, b) + Text.jdist(b, c) + 1e-12)
    }
  }
  test("jdist of equal sets is 0") {
    assert(Text.jdist(Set("x", "y"), Set("x", "y")) == 0.0)
  }
  test("jaccardStr and jdistStr agree with set forms") {
    assert(Text.jaccardStr("a b c", "b c d") == Text.jaccard(Set("a", "b", "c"), Set("b", "c", "d")))
    assert(Text.jdistStr("a b", "a b") == 0.0)
  }
  test("canonical sorts and joins tokens") {
    assert(Text.canonical("B a c a") == "a b c")
  }
  test("canonical is idempotent through tokens") {
    val rnd = new Random(4)
    (1 to 100).foreach { _ =>
      val s = Seq.fill(rnd.nextInt(6))(s"t${rnd.nextInt(9)}").mkString(" ")
      assert(Text.tokens(Text.canonical(s)) == Text.tokens(s))
    }
  }
}
