# The traffic gate (make traffic). Input: traffic.allow, then the
# output of `go tool cover -func` over the traffic matrix's coverage,
# with module set to the module path. Every function at 0 % must be
# listed in traffic.allow under a known reason class, and every listed
# function must still be at 0 %, so the list can only shrink. Lines are
# keyed by file and function name, not by line number; a name that is
# at 0 % twice in one file (two methods of the same name) is listed
# twice. Prints each violation and exits 1 if there is one.
BEGIN {
	n = split(classes, c, " ")
	for (i = 1; i <= n; i++) known[c[i]] = 1
}
FNR == NR {
	if ($0 ~ /^[ \t]*(#|$)/) next
	if (NF != 3 || !($3 in known)) {
		printf "traffic.allow:%d: want <file> <function> <class>, class one of %s: %s\n", FNR, classes, $0
		bad++
		next
	}
	allowed[$1 " " $2]++
	next
}
$NF == "0.0%" {
	f = $1
	sub("^" module "/", "", f)
	sub(/:[0-9]+:$/, "", f)
	k = f " " $2
	if (allowed[k] > 0) {
		allowed[k]--
		listed++
	} else {
		print "no traffic, and not in traffic.allow: " k
		bad++
	}
}
END {
	for (k in allowed)
		for (; allowed[k] > 0; allowed[k]--) {
			print "in traffic.allow, but has traffic or is gone: " k
			bad++
		}
	if (bad) {
		printf "traffic: %d violation(s): give the function traffic, delete it, or list it with its reason\n", bad
		exit 1
	}
	printf "functions at 0 %%: %d, each listed in traffic.allow\n", listed
}
