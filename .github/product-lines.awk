# Prints the product lines of the Rust sources given as arguments: every
# line that is not test-only. CI's panic census greps the output for panic
# sites, and its product-line census counts the non-blank, non-comment lines.
#
# A `#[cfg(test)]` removes what it attributes:
#   - at column 0, before `mod x;`: that line, and the file `x.rs` (or
#     `x/mod.rs`) if it is among the arguments;
#   - at column 0, before an inline `mod … {`: the rest of the file;
#   - anywhere else: the item or statement that follows, one line, or a
#     bracketed block up to the line that closes it.
# Attributes and comments between the `#[cfg(test)]` and its item go too.

BEGIN {
    for (i = 1; i < ARGC; i++) {
        file = ARGV[i]
        dir = file
        sub(/[^\/]*$/, "", dir)
        if (file !~ /\/(lib|main|mod)\.rs$/) {
            stem = file
            sub(/\.rs$/, "/", stem)
            dir = stem
        }
        attributed = 0
        while ((getline line < file) > 0) {
            if (attributed && match(line, /^(pub(\([a-z]+\))? )?mod [a-z0-9_]+;/)) {
                name = substr(line, 1, RLENGTH - 1)
                sub(/.* /, "", name)
                skip_file[dir name ".rs"] = 1
                skip_file[dir name "/mod.rs"] = 1
            }
            attributed = line ~ /^#\[cfg\(test\)\]/
        }
        close(file)
    }
}

FNR == 1 { rest_of_file = FILENAME in skip_file; item = 0; column0 = 0 }

rest_of_file { next }

/^[[:space:]]*#\[cfg\(test\)\]/ {
    item = 1
    column0 = $0 ~ /^#/
    depth = 0
    next
}

item && /^[[:space:]]*(#\[|\/\/)/ { next }

item {
    if (column0 && /^(pub(\([a-z]+\))? )?mod [a-z0-9_]+ *\{/) {
        rest_of_file = 1
        next
    }
    line = $0
    depth += gsub(/[[({]/, "", line) - gsub(/[])}]/, "", line)
    if (depth <= 0) item = 0
    next
}

{ print }
