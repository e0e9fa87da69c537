package obs

import (
	"fmt"
	"regexp"
	"strconv"
	"strings"
)

// sampleLineRE is a sample line of the text exposition format: a name, an
// optional label block whose values escape backslash, quote and newline and
// hold nothing else that needs it, one space, one value.
var sampleLineRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\[\\"n])*"(?:,[a-zA-Z_][a-zA-Z0-9_]*="(?:[^"\\]|\\[\\"n])*")*\})? ([^ ]+)$`)

var (
	helpLineRE = regexp.MustCompile(`^# HELP ([a-zA-Z_:][a-zA-Z0-9_:]*) .+$`)
	typeLineRE = regexp.MustCompile(`^# TYPE ([a-zA-Z_:][a-zA-Z0-9_:]*) (counter|gauge|histogram)$`)
)

// checkExposition is the grammar every rendered /metrics page must meet,
// whatever the series came from: each line is a HELP, a TYPE or a sample
// with exactly one value; a family has one TYPE line, ahead of its first
// sample; every sample belongs to a typed family (a histogram's through its
// _bucket, _sum and _count names); and each histogram series ends in an
// le="+Inf" bucket equal to its _count. It returns the families' kinds.
func checkExposition(text string) (map[string]string, error) {
	kinds := map[string]string{}
	inf := ""
	for n, line := range strings.Split(strings.TrimSuffix(text, "\n"), "\n") {
		fail := func(why string) (map[string]string, error) {
			return nil, fmt.Errorf("line %d %q: %s", n+1, line, why)
		}
		if helpLineRE.MatchString(line) {
			continue
		}
		if m := typeLineRE.FindStringSubmatch(line); m != nil {
			if kinds[m[1]] != "" {
				return fail("second TYPE line of its family")
			}
			kinds[m[1]] = m[2]
			continue
		}
		m := sampleLineRE.FindStringSubmatch(line)
		if m == nil {
			return fail("not a HELP, TYPE or sample line")
		}
		if _, err := strconv.ParseFloat(m[3], 64); err != nil {
			return fail("value is not a number")
		}
		switch base, suffix := splitHistName(m[1]); {
		case kinds[m[1]] == "counter" || kinds[m[1]] == "gauge":
		case kinds[base] != "histogram":
			return fail("sample before, or without, its family's TYPE line")
		case suffix == "_bucket" && strings.Contains(m[2], `le="+Inf"`):
			inf = m[3]
		case suffix == "_count" && m[3] != inf:
			return fail("_count differs from the +Inf bucket " + inf)
		}
	}
	return kinds, nil
}

// splitHistName splits a histogram sample name into family and suffix.
func splitHistName(name string) (base, suffix string) {
	for _, suffix := range []string{"_bucket", "_sum", "_count"} {
		if strings.HasSuffix(name, suffix) {
			return strings.TrimSuffix(name, suffix), suffix
		}
	}
	return name, ""
}
