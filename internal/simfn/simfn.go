// Package simfn provides the string similarity functions BigDansing's
// UDF-based rules use: the deduplication rules φ4/φ5 of the evaluation use
// Levenshtein distance, and rule φU of Example 1 needs a generic simF.
package simfn

import (
	"strings"
	"unicode"
)

// Levenshtein returns the edit distance (insert/delete/substitute, unit
// costs) between a and b, computed over runes with a two-row DP.
func Levenshtein(a, b string) int {
	ra, rb := []rune(a), []rune(b)
	if len(ra) == 0 {
		return len(rb)
	}
	if len(rb) == 0 {
		return len(ra)
	}
	prev := make([]int, len(rb)+1)
	cur := make([]int, len(rb)+1)
	for j := range prev {
		prev[j] = j
	}
	for i := 1; i <= len(ra); i++ {
		cur[0] = i
		for j := 1; j <= len(rb); j++ {
			cost := 1
			if ra[i-1] == rb[j-1] {
				cost = 0
			}
			cur[j] = min3(prev[j]+1, cur[j-1]+1, prev[j-1]+cost)
		}
		prev, cur = cur, prev
	}
	return prev[len(rb)]
}

// LevenshteinSimilarity normalizes the edit distance into [0,1]:
// 1 means identical, 0 means maximally different.
func LevenshteinSimilarity(a, b string) float64 {
	if a == "" && b == "" {
		return 1
	}
	maxLen := len([]rune(a))
	if l := len([]rune(b)); l > maxLen {
		maxLen = l
	}
	return 1 - float64(Levenshtein(a, b))/float64(maxLen)
}

// Soundex returns the 4-character American Soundex code of s, the classic
// phonetic blocking key for deduplication. Non-letters are ignored; an empty
// input yields "0000".
func Soundex(s string) string {
	code := func(r rune) byte {
		switch unicode.ToUpper(r) {
		case 'B', 'F', 'P', 'V':
			return '1'
		case 'C', 'G', 'J', 'K', 'Q', 'S', 'X', 'Z':
			return '2'
		case 'D', 'T':
			return '3'
		case 'L':
			return '4'
		case 'M', 'N':
			return '5'
		case 'R':
			return '6'
		default:
			return 0 // vowels, H, W, Y and non-letters
		}
	}
	var letters []rune
	for _, r := range s {
		if unicode.IsLetter(r) {
			letters = append(letters, r)
		}
	}
	if len(letters) == 0 {
		return "0000"
	}
	var b strings.Builder
	b.WriteRune(unicode.ToUpper(letters[0]))
	last := code(letters[0])
	for _, r := range letters[1:] {
		c := code(r)
		if c != 0 && c != last {
			b.WriteByte(c)
			if b.Len() == 4 {
				break
			}
		}
		// H and W do not reset the previous code; vowels do.
		up := unicode.ToUpper(r)
		if up != 'H' && up != 'W' {
			last = c
		}
	}
	for b.Len() < 4 {
		b.WriteByte('0')
	}
	return b.String()
}

func min3(a, b, c int) int {
	if b < a {
		a = b
	}
	if c < a {
		a = c
	}
	return a
}
