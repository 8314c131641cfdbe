//! The kelp-lint abstract syntax tree.
//!
//! A deliberately small model of the Rust subset this workspace uses: items
//! (functions, structs, enums, impls, modules, traits), attributes flattened
//! to their identifier lists, and expression trees that preserve exactly the
//! structure the v2 rules pattern-match on — calls, method calls, indexing,
//! macros, casts, and closures. Everything else (binary operators, blocks,
//! `if`/`match` scaffolding) collapses into [`Expr::Many`] so rule walkers
//! can recurse without caring about operator precedence.
//!
//! The tree is produced by [`crate::parse`], which is total on arbitrary
//! token streams: unparseable input degrades to skipped tokens or
//! [`Expr::Opaque`] leaves, never to a panic.

/// An attribute (`#[...]` or `#![...]`) flattened to its identifier tokens.
///
/// `#[derive(Serialize, Deserialize)]` becomes `["derive", "Serialize",
/// "Deserialize"]`; `#[cfg(all(test, feature))]` becomes `["cfg", "all",
/// "test", "feature"]`. The flattening loses nesting, which is fine for the
/// membership tests the rules perform (same approximation PR 3's token
/// rules used for `cfg(test)` detection).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Attr {
    pub idents: Vec<String>,
    pub line: u32,
}

impl Attr {
    /// Whether the attribute mentions `name` anywhere.
    pub fn mentions(&self, name: &str) -> bool {
        self.idents.iter().any(|i| i == name)
    }

    /// The `#[cfg(test)]` / `#[cfg(all(test, …))]` shape: gates the item to
    /// test builds. `cfg(not(test))` is real code and does not count.
    pub fn is_cfg_test(&self) -> bool {
        self.idents.first().is_some_and(|i| i == "cfg")
            && self.mentions("test")
            && !self.mentions("not")
    }
}

/// One item (module-level or nested in an impl/trait/block).
#[derive(Debug, Clone, PartialEq)]
pub struct Item {
    pub kind: ItemKind,
    pub attrs: Vec<Attr>,
    /// Carries any `pub` qualifier, including restricted forms like
    /// `pub(crate)` (the distinction does not matter to the rules: a
    /// `pub(crate)` fn is not part of the crate's public API, but the
    /// parser cannot tell `pub(crate)` from `pub(in …)` without more state,
    /// so restricted visibility is recorded separately).
    pub public: bool,
    /// `true` only for restricted visibility (`pub(…)`): visible to the
    /// workspace but not part of the crate's external API.
    pub restricted: bool,
    pub line: u32,
}

/// The item kinds the parser distinguishes.
#[derive(Debug, Clone, PartialEq)]
pub enum ItemKind {
    Fn(FnItem),
    Struct(StructItem),
    Enum(EnumItem),
    Impl(ImplBlock),
    Mod(ModItem),
    Trait(TraitItem),
    /// `use`, `const`, `static`, `type`, `macro_rules!`, `extern` — carried
    /// for completeness; the rules do not inspect them.
    Other,
}

/// A function or method.
#[derive(Debug, Clone, PartialEq)]
pub struct FnItem {
    pub name: String,
    pub line: u32,
    /// Every identifier token in the signature (parameters, return type,
    /// where clause), for type co-occurrence checks (KL-F03) without a
    /// full type grammar.
    pub sig_idents: Vec<String>,
    /// Parameter names in declaration order (`self` receivers are recorded
    /// as `"self"`). Destructuring parameters contribute their bound
    /// identifiers. Feeds the dataflow engine's per-parameter summaries.
    pub params: Vec<String>,
    /// `None` for bodiless trait-method declarations.
    pub body: Option<Expr>,
}

/// A struct definition. Tuple and unit structs have an empty `fields` list.
#[derive(Debug, Clone, PartialEq)]
pub struct StructItem {
    pub name: String,
    pub fields: Vec<FieldDef>,
    /// Identifier tokens of tuple-struct payload types (for reachability).
    pub tuple_type_idents: Vec<String>,
}

/// A named struct field.
#[derive(Debug, Clone, PartialEq)]
pub struct FieldDef {
    pub name: String,
    pub line: u32,
    /// Identifier tokens appearing in the field's type (`Vec<(String,
    /// PerfSnapshot)>` yields `["Vec", "String", "PerfSnapshot"]`), used to
    /// chase type reachability without a resolver.
    pub type_idents: Vec<String>,
    pub attrs: Vec<Attr>,
}

/// An enum definition: variant names plus payload type identifiers.
#[derive(Debug, Clone, PartialEq)]
pub struct EnumItem {
    pub name: String,
    pub variants: Vec<(String, Vec<String>)>,
}

/// An `impl Type { … }` or `impl Trait for Type { … }` block.
#[derive(Debug, Clone, PartialEq)]
pub struct ImplBlock {
    /// The self type's head identifier (`SolverScratch` in
    /// `impl<'a> SolverScratch<'a>`).
    pub type_name: String,
    /// The trait's head identifier for trait impls.
    pub trait_name: Option<String>,
    pub items: Vec<Item>,
}

/// An inline `mod name { … }` (file modules are separate scan entries).
#[derive(Debug, Clone, PartialEq)]
pub struct ModItem {
    pub name: String,
    pub items: Vec<Item>,
}

/// A trait definition (methods may carry default bodies).
#[derive(Debug, Clone, PartialEq)]
pub struct TraitItem {
    pub name: String,
    pub items: Vec<Item>,
}

/// An expression tree node.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// A (possibly qualified) path: `foo`, `Vec::new`, `crate::a::b`.
    Path { segments: Vec<String>, line: u32 },
    /// `callee(args…)`.
    Call {
        callee: Box<Expr>,
        args: Vec<Expr>,
        line: u32,
    },
    /// `recv.method(args…)`.
    MethodCall {
        recv: Box<Expr>,
        method: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `base.field` / `base.0` / `base.await`.
    Field {
        base: Box<Expr>,
        name: String,
        line: u32,
    },
    /// `base[index]`.
    Index {
        base: Box<Expr>,
        index: Box<Expr>,
        line: u32,
    },
    /// `name!(args…)` — args parsed tolerantly as an expression list.
    Macro {
        name: String,
        args: Vec<Expr>,
        line: u32,
    },
    /// `expr as Type` — `ty_idents` are the target type's identifiers.
    Cast {
        expr: Box<Expr>,
        ty_idents: Vec<String>,
        line: u32,
    },
    /// `|…| body` / `move |…| body`. `params` are the parameter names
    /// (destructuring parameters contribute their bound identifiers).
    Closure {
        params: Vec<String>,
        body: Box<Expr>,
        line: u32,
    },
    /// `let PAT (= init)? (else { … })?` — statement form, plus the
    /// binding half of `if let` / `while let` / let-chains. `pat_idents`
    /// are the lowercase identifiers the pattern binds (enum constructors
    /// and type names are filtered out by case convention).
    Let {
        pat_idents: Vec<String>,
        init: Option<Box<Expr>>,
        els: Option<Box<Expr>>,
        line: u32,
    },
    /// `target = value` or a compound assignment (`+=`, `|=`, `<<=`, …).
    Assign {
        target: Box<Expr>,
        value: Option<Box<Expr>>,
        compound: bool,
        line: u32,
    },
    /// `Name { field: expr, … }` — a struct literal with its field names.
    /// Shorthand fields become `(name, Path(name))`; `..base` spreads and
    /// anything unparseable land in `rest`.
    StructLit {
        name: String,
        fields: Vec<(String, Expr)>,
        rest: Vec<Expr>,
        line: u32,
    },
    /// `for PAT in iter { body }`.
    For {
        pat_idents: Vec<String>,
        iter: Option<Box<Expr>>,
        body: Option<Box<Expr>>,
        line: u32,
    },
    /// `match scrutinee { arms }` with per-arm bound identifiers (guards
    /// and bodies are the arm's `children`).
    Match {
        scrutinee: Option<Box<Expr>>,
        arms: Vec<Arm>,
        line: u32,
    },
    /// `return expr?`.
    Ret { value: Option<Box<Expr>>, line: u32 },
    /// A block, which may contain nested items (`fn` in `fn`).
    Block {
        stmts: Vec<Expr>,
        items: Vec<Item>,
        line: u32,
    },
    /// A range expression (`a..b`, `..`, `..=x`). Kept distinct from
    /// binary operators so full-range indexing (`&xs[..]`), which cannot
    /// panic, stays recognisable.
    Range { operands: Vec<Expr>, line: u32 },
    /// A literal (string, char, number).
    Lit { line: u32 },
    /// Any composite the rules do not pattern on (binary/unary operators,
    /// `if`/`match`/`while` scaffolding, tuples, arrays): just children.
    Many { children: Vec<Expr>, line: u32 },
    /// A token the expression grammar could not place. Totality fallback.
    Opaque { line: u32 },
}

/// One `match` arm: the identifiers its pattern binds plus its guard and
/// body expressions.
#[derive(Debug, Clone, PartialEq)]
pub struct Arm {
    pub pat_idents: Vec<String>,
    pub children: Vec<Expr>,
}

impl Expr {
    /// The source line the expression starts on.
    pub fn line(&self) -> u32 {
        match self {
            Expr::Path { line, .. }
            | Expr::Call { line, .. }
            | Expr::MethodCall { line, .. }
            | Expr::Field { line, .. }
            | Expr::Index { line, .. }
            | Expr::Macro { line, .. }
            | Expr::Cast { line, .. }
            | Expr::Closure { line, .. }
            | Expr::Block { line, .. }
            | Expr::Range { line, .. }
            | Expr::Lit { line }
            | Expr::Many { line, .. }
            | Expr::Let { line, .. }
            | Expr::Assign { line, .. }
            | Expr::StructLit { line, .. }
            | Expr::For { line, .. }
            | Expr::Match { line, .. }
            | Expr::Ret { line, .. }
            | Expr::Opaque { line } => *line,
        }
    }

    /// Visits this expression and every descendant, pre-order. Nested items
    /// inside blocks are *not* entered (the item walker owns those).
    pub fn walk<'a>(&'a self, visit: &mut impl FnMut(&'a Expr)) {
        visit(self);
        match self {
            Expr::Call { callee, args, .. } => {
                callee.walk(visit);
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::MethodCall { recv, args, .. } => {
                recv.walk(visit);
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::Field { base, .. } => base.walk(visit),
            Expr::Index { base, index, .. } => {
                base.walk(visit);
                index.walk(visit);
            }
            Expr::Macro { args, .. } => {
                for a in args {
                    a.walk(visit);
                }
            }
            Expr::Cast { expr, .. } => expr.walk(visit),
            Expr::Closure { body, .. } => body.walk(visit),
            Expr::Block { stmts, .. } => {
                for s in stmts {
                    s.walk(visit);
                }
            }
            Expr::Range { operands, .. }
            | Expr::Many {
                children: operands, ..
            } => {
                for c in operands {
                    c.walk(visit);
                }
            }
            Expr::Let { init, els, .. } => {
                if let Some(i) = init {
                    i.walk(visit);
                }
                if let Some(e) = els {
                    e.walk(visit);
                }
            }
            Expr::Assign { target, value, .. } => {
                target.walk(visit);
                if let Some(v) = value {
                    v.walk(visit);
                }
            }
            Expr::StructLit { fields, rest, .. } => {
                for (_, v) in fields {
                    v.walk(visit);
                }
                for r in rest {
                    r.walk(visit);
                }
            }
            Expr::For { iter, body, .. } => {
                if let Some(i) = iter {
                    i.walk(visit);
                }
                if let Some(b) = body {
                    b.walk(visit);
                }
            }
            Expr::Match {
                scrutinee, arms, ..
            } => {
                if let Some(s) = scrutinee {
                    s.walk(visit);
                }
                for arm in arms {
                    for c in &arm.children {
                        c.walk(visit);
                    }
                }
            }
            Expr::Ret { value, .. } => {
                if let Some(v) = value {
                    v.walk(visit);
                }
            }
            Expr::Path { .. } | Expr::Lit { .. } | Expr::Opaque { .. } => {}
        }
    }
}

/// Walks every item in a tree (including items nested in impls, traits,
/// inline modules, and function-body blocks), pre-order, with the enclosing
/// impl's type name (if any).
pub fn walk_items<'a>(items: &'a [Item], visit: &mut impl FnMut(&'a Item, Option<&'a str>)) {
    walk_items_inner(items, None, visit)
}

fn walk_items_inner<'a>(
    items: &'a [Item],
    owner: Option<&'a str>,
    visit: &mut impl FnMut(&'a Item, Option<&'a str>),
) {
    for item in items {
        visit(item, owner);
        match &item.kind {
            ItemKind::Impl(b) => walk_items_inner(&b.items, Some(&b.type_name), visit),
            ItemKind::Mod(m) => walk_items_inner(&m.items, owner, visit),
            ItemKind::Trait(t) => walk_items_inner(&t.items, owner, visit),
            ItemKind::Fn(f) => {
                if let Some(body) = &f.body {
                    let mut nested: Vec<&Item> = Vec::new();
                    collect_block_items(body, &mut nested);
                    for n in nested {
                        visit(n, owner);
                        if let ItemKind::Fn(nf) = &n.kind {
                            if let Some(nb) = &nf.body {
                                let mut deeper: Vec<&Item> = Vec::new();
                                collect_block_items(nb, &mut deeper);
                                for d in deeper {
                                    visit(d, owner);
                                }
                            }
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Collects items declared inside a function body's blocks.
fn collect_block_items<'a>(expr: &'a Expr, out: &mut Vec<&'a Item>) {
    expr.walk(&mut |e| {
        if let Expr::Block { items, .. } = e {
            out.extend(items.iter());
        }
    });
}
