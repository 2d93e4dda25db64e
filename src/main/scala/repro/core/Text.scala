package repro.core

/** Tokenization and Jaccard similarity/distance over token sets (Eq. 1).
  *
  * Attributes are textual; a token is a maximal run of lowercase
  * alphanumerics. Lowercasing uses `Locale.ROOT`, so tokens do not depend on
  * the JVM's default locale (under `tr`, `"I"` would lowercase to a dotless
  * `ı` and split the token). `J(∅, ∅) = 1` (two empty attribute values are
  * identical), which keeps `dist` a proper metric on the token-set space so
  * the triangle-inequality pruning (Lemmas 4.2/4.3) stays sound.
  */
object Text {

  /** Token set of an attribute value; `null`/empty → empty set. */
  def tokens(s: String): Set[String] =
    if (s == null || s.isEmpty) Set.empty
    else {
      val b   = Set.newBuilder[String]
      val sb  = new StringBuilder
      var i   = 0
      val low = s.toLowerCase(java.util.Locale.ROOT)
      while (i <= low.length) {
        val c = if (i < low.length) low.charAt(i) else ' '
        if ((c >= 'a' && c <= 'z') || (c >= '0' && c <= '9')) sb.append(c)
        else if (sb.nonEmpty) { b += sb.result(); sb.clear() }
        i += 1
      }
      b.result()
    }

  /** Jaccard similarity of two token sets. */
  def jaccard(a: Set[String], b: Set[String]): Double =
    if (a.isEmpty && b.isEmpty) 1.0
    else {
      val inter = if (a.size <= b.size) a.count(b.contains) else b.count(a.contains)
      inter.toDouble / (a.size + b.size - inter)
    }

  /** Jaccard distance (1 - similarity); a metric on token sets. */
  def jdist(a: Set[String], b: Set[String]): Double = 1.0 - jaccard(a, b)

  def jaccardStr(a: String, b: String): Double = jaccard(tokens(a), tokens(b))
  def jdistStr(a: String, b: String): Double   = jdist(tokens(a), tokens(b))

  /** Canonical space-joined sorted-token rendering, used when handing data
    * to the DuckDB oracle so both sides tokenize identically.
    */
  def canonical(s: String): String = tokens(s).toSeq.sorted.mkString(" ")
}
